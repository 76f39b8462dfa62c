"""Synthetic NLANR-like web trace (Figure 3's Web; Section 10's Webcache).

The real trace records accesses seen by NLANR's IRCache proxies.  For the
locality analysis, each web object is named by its URL with the domain
tuples reversed (www.yahoo.com/a.html → com.yahoo.www/a.html) so that name
order groups objects by site — the paper's *ordered* scenario for Web.

The generator reproduces the consumed structure:

* **Zipf site popularity** over a universe of sites;
* **per-site path trees** (sections/pages/embedded objects), so one page
  view touches several objects that are adjacent in reversed-URL order —
  the name-space locality the analysis measures;
* **user sessions** that browse a few pages on one site before moving on,
  with occasional cross-site jumps (ads, links);
* **heavy churn** for the Webcache experiment: objects are modified at the
  origin over time, so re-fetches insert new versions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List

from repro.workloads.trace import READ, SECONDS_PER_DAY, Trace, TraceRecord


@dataclass(frozen=True)
class WebConfig:
    sites: int = 60
    users: int = 40
    days: float = 7.0
    zipf_s: float = 0.9
    sections_per_site: int = 6
    pages_per_section: int = 10
    objects_per_page_mean: float = 8.0
    page_size_median: float = 12_000.0
    page_size_sigma: float = 1.4
    sessions_per_user_day: float = 8.0
    pages_per_session_mean: float = 6.0
    same_site_stickiness: float = 0.8
    inter_click_mean: float = 15.0
    intra_page_gap: float = 0.1
    seed: int = 0


def reversed_domain(host: str) -> str:
    """www.yahoo.com -> com.yahoo.www (Section 4.1's Web naming)."""
    return ".".join(reversed(host.split(".")))


@dataclass(frozen=True)
class WebObject:
    url: str        # canonical reversed name, e.g. /com.site07.www/s2/p4/img3
    size: int


class WebUniverse:
    """The site/page/object structure shared by the trace and the cache."""

    def __init__(self, config: WebConfig, rng: random.Random) -> None:
        self.config = config
        self.sites: List[str] = [
            reversed_domain(f"www.site{i:03d}.com") for i in range(config.sites)
        ]
        self.pages: Dict[str, List[List[WebObject]]] = {}
        for site in self.sites:
            site_pages: List[List[WebObject]] = []
            for s in range(config.sections_per_site):
                for p in range(config.pages_per_section):
                    objects = [
                        WebObject(
                            url=f"/{site}/s{s}/p{p}/index.html",
                            size=_lognormal(rng, config.page_size_median, config.page_size_sigma),
                        )
                    ]
                    n_embedded = max(0, _poisson(rng, config.objects_per_page_mean - 1))
                    for o in range(n_embedded):
                        objects.append(
                            WebObject(
                                url=f"/{site}/s{s}/p{p}/obj{o:02d}",
                                size=_lognormal(
                                    rng, config.page_size_median, config.page_size_sigma
                                ),
                            )
                        )
                    site_pages.append(objects)
            self.pages[site] = site_pages
        # Zipf weights over sites.
        weights = [1.0 / (rank + 1) ** config.zipf_s for rank in range(len(self.sites))]
        total = sum(weights)
        self.site_weights = [w / total for w in weights]

    def pick_site(self, rng: random.Random) -> str:
        return rng.choices(self.sites, weights=self.site_weights, k=1)[0]


def generate_web(config: WebConfig = WebConfig()) -> Trace:
    """A week of user page views as read records (object name = URL path).

    Object sizes ride in the record's ``length`` field so downstream
    analyses know the byte volume without a separate catalogue; the
    universe itself is recoverable via :class:`WebUniverse` with the same
    seed.
    """
    rng = random.Random(config.seed)
    universe = WebUniverse(config, rng)
    records: List[TraceRecord] = []
    total_seconds = config.days * SECONDS_PER_DAY
    for u in range(config.users):
        user = f"client{u:03d}"
        day = 0.0
        while day < config.days:
            day_start = day * SECONDS_PER_DAY
            for _ in range(_poisson(rng, config.sessions_per_user_day)):
                start = day_start + rng.uniform(0, SECONDS_PER_DAY)
                if start >= total_seconds:
                    continue
                _generate_session(user, universe, config, rng, records, start)
            day += 1.0
    return Trace(name="web-synth", records=records)


def _generate_session(
    user: str,
    universe: WebUniverse,
    config: WebConfig,
    rng: random.Random,
    records: List[TraceRecord],
    start: float,
) -> None:
    site = universe.pick_site(rng)
    when = start
    n_pages = max(1, _poisson(rng, config.pages_per_session_mean))
    for _ in range(n_pages):
        if rng.random() >= config.same_site_stickiness:
            site = universe.pick_site(rng)
        page = rng.choice(universe.pages[site])
        for obj in page:
            records.append(
                TraceRecord(when, user, READ, obj.url, offset=0, length=obj.size)
            )
            when += rng.expovariate(1.0 / config.intra_page_gap)
        when += rng.expovariate(1.0 / config.inter_click_mean)


def _lognormal(rng: random.Random, median: float, sigma: float) -> int:
    return max(128, int(median * math.exp(sigma * rng.gauss(0.0, 1.0))))


def _poisson(rng: random.Random, lam: float) -> int:
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1
