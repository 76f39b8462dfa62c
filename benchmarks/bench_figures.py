"""One bench per entry of the figure table (:data:`repro.experiments.figures.FIGURES`).

``test_figure[<name>]`` regenerates one of the paper's tables/figures (or
a matrix, ablation or extension) at laptop scale, prints the
paper-comparable report, and asserts the *shape* claims — who wins, by
roughly what factor, where crossovers fall.  The checks live here, not in
``src/``: :data:`SHAPE_CHECKS` maps each registry name to a function of
that entry's rows (one argument per printed table), and
``tests/test_experiments.py`` holds its keys equal to the registry's.

Expensive simulation matrices are shared across benches through the
process-wide experiment memo, so ``test_figure[fig10]`` … ``[fig15]``
reuse the grid ``[fig9]`` ran.
"""

from collections import defaultdict

import pytest

from benchmarks.conftest import run_once
from repro.experiments.figures import FIGURES
from repro.experiments.scale_matrix import BENCH_ENV


def check_table1(rows):
    by_name = {row["workload"]: row for row in rows}
    # Shape: every workload spans the configured window and sees far more
    # accesses than users; Harvard carries the (scaled) tens of MB of
    # active data the dynamic experiments need.
    for row in rows:
        assert row["duration_days"] > 0.5
        assert row["accesses"] > 100 * row["users"]
    assert by_name["harvard-synth"]["active_mb"] > 10


def check_fig3(rows):
    by_key = {(r["workload"], r["scenario"]): r for r in rows}
    for workload in ("hp-synth", "harvard-synth", "web-synth"):
        ordered = by_key[(workload, "ordered")]["normalized"]
        bound = by_key[(workload, "lower-bound")]["normalized"]
        # Paper: ordered reduces nodes-contacted ~10x vs traditional...
        assert ordered < 0.25, f"{workload}: ordered not local enough"
        # ...and sits within an order of magnitude of the lower bound.
        assert ordered <= 10 * bound + 1e-9
        assert bound <= ordered + 1e-9


def check_fig7(rows):
    means = defaultdict(dict)
    for row in rows:
        means[row["inter_s"]][row["system"]] = row["mean_unavailability"]
    for inter, by_system in means.items():
        d2 = by_system["d2"]
        trad = by_system["traditional"]
        # Paper: D2 cuts unavailability by ~an order of magnitude at every
        # inter; at bench scale we require >= 3x and never worse.
        assert d2 <= trad, f"inter={inter}: D2 worse than traditional"
        if trad > 0:
            assert d2 <= trad / 3.0, f"inter={inter}: improvement below 3x"
    # Some D2 trials show no failures at all (as in the paper's figure).
    d2_rows = [row for row in rows if row["system"] == "d2"]
    assert any(row["zero_trials"] > 0 for row in d2_rows)


def check_fig8(rows):
    affected = {
        row["system"]: row["unavailability"]
        for row in rows
        if row["rank"] == "affected-users"
    }
    # Paper: D2 concentrates failures in fewer users than traditional.
    assert affected.get("d2", 0) <= affected.get("traditional", 0)


def check_table2(rows):
    for row in rows:
        # Paper shape: blocks >> files; node spread ordering
        # D2 << traditional-file < traditional; D2 stays a small constant.
        assert row["blocks_per_task"] > 2 * row["files_per_task"]
        assert row["nodes_d2"] < row["nodes_traditional-file"]
        assert row["nodes_traditional-file"] < row["nodes_traditional"]
        assert row["nodes_d2"] <= 6
    # Spread grows (weakly) with inter for the traditional DHT.
    trad = [row["nodes_traditional"] for row in rows]
    assert trad == sorted(trad)


def check_fig9(rows):
    for row in rows:
        trad = row["msgs_per_node_traditional"]
        d2 = row["msgs_per_node_d2"]
        tfile = row["msgs_per_node_traditional-file"]
        # Paper: D2 sends a small fraction of the traditional DHT's lookup
        # traffic (<1/20 at 1000 nodes; >=4x less at bench scale), with
        # traditional-file in between.
        assert d2 < trad / 4.0
        assert d2 <= tfile
    # D2's per-node traffic decreases (weakly) with system size.
    for mode in ("seq", "para"):
        series = [r["msgs_per_node_d2"] for r in rows if r["mode"] == mode]
        assert series[-1] <= series[0]


def check_fig10(rows):
    by_key = {(r["bandwidth_kbps"], r["mode"], r["n_nodes"]): r["speedup"] for r in rows}
    seq_1500 = [v for (bw, mode, _n), v in by_key.items() if bw == 1500.0 and mode == "seq"]
    # Paper: seq speedup always noticeably above 1 (>= 1.9x at their
    # largest scale; >= 1.2x mean at ours).
    assert all(v > 1.0 for v in seq_1500)
    assert max(seq_1500) > 1.2
    # Paper: para at 1500 kbps stays >= ~1.
    para_1500 = [v for (bw, mode, _n), v in by_key.items() if bw == 1500.0 and mode == "para"]
    assert all(v > 0.9 for v in para_1500)
    # Paper's crossover: para at 384 kbps drops below 1 for the smaller
    # sizes (parallelism beats locality when links are slow).
    para_384 = [v for (bw, mode, _n), v in sorted(by_key.items()) if bw == 384.0 and mode == "para"]
    assert min(para_384) < 1.0
    # seq at 384 kbps still favors D2.
    seq_384 = [v for (bw, mode, _n), v in by_key.items() if bw == 384.0 and mode == "seq"]
    assert all(v > 1.0 for v in seq_384)


def check_fig11(rows):
    by_key = {(r["bandwidth_kbps"], r["mode"], r["n_nodes"]): r["speedup"] for r in rows}
    # Paper: D2 is at worst comparable with traditional-file in seq (their
    # seq speedups are similar at 200 nodes) and wins in para at 1500 kbps.
    seq = [v for (bw, mode, _n), v in by_key.items() if mode == "seq"]
    assert all(v > 0.75 for v in seq)
    para_1500 = [v for (bw, mode, _n), v in by_key.items()
                 if bw == 1500.0 and mode == "para"]
    assert all(v > 1.0 for v in para_1500)


def check_fig12(rows):
    seq = [r["speedup"] for r in rows if r["mode"] == "seq"]
    assert seq, "no per-user results"
    winners = sum(1 for v in seq if v > 1.0)
    # Paper: most users win; a small minority may see a mild slowdown
    # (distant replicas), much smaller than the typical speedup.
    assert winners / len(seq) >= 0.6
    if min(seq) < 1.0:
        assert min(seq) > 1.0 / max(seq)


def check_fig13(rows):
    for row in rows:
        # Paper: D2 ~13% vs traditional >= 47%; shape requirement: a wide
        # gap at every size, with traditional-file in between.
        assert row["miss_rate_d2"] < row["miss_rate_traditional"] / 2.5
        assert row["miss_rate_d2"] <= row["miss_rate_traditional-file"]
    for mode in ("seq", "para"):
        series = [r for r in rows if r["mode"] == mode]
        trad = [r["miss_rate_traditional"] for r in series]
        d2 = [r["miss_rate_d2"] for r in series]
        # Traditional's miss rate grows with system size; D2's stays low.
        assert trad[-1] > trad[0]
        assert d2[-1] < 0.15


def check_fig14(rows):
    for row in rows:
        # Paper: the weight of the distribution lies above the diagonal.
        assert row["fraction_above_diagonal"] > 0.5
    seq = next(r for r in rows if r["mode"] == "seq")
    # Paper: slow (>5 s) groups overwhelmingly complete faster in D2 (seq).
    if seq["slow_groups"]:
        assert seq["slow_groups_d2_wins"] >= 0.7 * seq["slow_groups"]


def check_fig15(rows):
    para = next(r for r in rows if r["mode"] == "para")
    # Paper: the mass sits above the diagonal against traditional-file too
    # (clearest in para, where trad-file cannot parallelize within files).
    assert para["fraction_above_diagonal"] > 0.5


def check_table3(rows, _dynamic_rows):
    harvard = [r for r in rows if r["workload"] == "Harvard"]
    webcache = [r for r in rows if r["workload"] == "Webcache"]
    # Paper: Harvard writes/removes ~10-20% of stored bytes per day.
    for row in harvard:
        assert 0.02 <= row["W_over_T"] <= 0.6
        assert row["R_over_T"] <= 0.6
    # Paper: Webcache churn is extreme — daily writes comparable to or far
    # exceeding the stored volume (day 1 starts from empty).
    steady = [r for r in webcache[1:]]
    assert steady, "need at least two webcache days"
    assert max(r["W_over_T"] for r in steady) > 0.5
    assert max(r["W_over_T"] for r in webcache) > max(r["W_over_T"] for r in harvard)


def check_churn(rows):
    by_level = {row["level"]: row for row in rows if row["correlated"] == 0}
    assert set(by_level) == {"calm", "steady", "storm"}
    for row in rows:
        # Membership actually changed: the storm is not a no-op.
        assert row["joins"] + row["leaves"] + row["crashes"] > 0
        # Repair keeps up after the drain window: backlog goes to zero and
        # (nearly) every surviving block is back at full replication.
        assert row["backlog_drained"] == 0
        assert row["fully_replicated"] >= 0.98
        # Loss is rare — a graceful-leave-only run would be zero; crashes
        # can lose blocks only when a whole replica group dies inside one
        # repair window.
        assert row["loss_prob"] <= 0.05
    # Heavier storms do strictly more membership work.
    ops = {
        level: row["joins"] + row["leaves"] + row["crashes"]
        for level, row in by_level.items()
    }
    assert ops["storm"] > ops["calm"]
    # Correlated outages add crashes on top of the storm's own.
    paired = {(row["level"], row["correlated"]): row for row in rows}
    if ("steady", 3) in paired:
        assert paired[("steady", 3)]["crashes"] > paired[("steady", 0)]["crashes"]


def check_fig16(rows):
    nsd = {row["system"]: row["mean_nsd"] for row in rows}
    # Paper ordering: traditional-file >> traditional > D2 ~ trad+Merc.
    assert nsd["traditional-file"] > nsd["traditional"]
    assert nsd["d2"] < nsd["traditional"]
    assert nsd["d2"] < 2.0 * nsd["traditional+merc"] + 0.05
    mom = {row["system"]: row["mean_max_over_mean"] for row in rows}
    # Paper: D2's max node load ~1.6x mean vs traditional's ~2.4x, and the
    # t=4 threshold bounds it.
    assert mom["d2"] < mom["traditional-file"]
    assert mom["d2"] <= 4.0


def check_fig17(rows):
    nsd = {row["system"]: row["mean_nsd"] for row in rows}
    # Paper: after warm-up D2's imbalance stays below the traditional
    # DHT's despite the extreme churn.
    assert nsd["d2"] < nsd["traditional"]
    moves = {row["system"]: row["moves"] for row in rows}
    assert moves["d2"] > 0 and moves["traditional"] == 0


def check_table4(rows):
    ratios = {
        row["workload"].lower(): row["L_mb_per_node"] / row["W_mb_per_node"]
        for row in rows
        if row["day"] == "total L/W"
    }
    print(f"total L/W: harvard={ratios['harvard']:.2f} "
          f"webcache={ratios['webcache']:.2f}")
    # Paper: Harvard migration ~50% of write volume; Webcache ~slightly
    # above parity.  Shape: both stay within small constant factors of the
    # write volume (pointers prevent multi-x blowup), and webcache churn
    # does not make migration explode past ~2x writes.
    assert ratios["harvard"] < 1.5
    assert ratios["webcache"] < 2.0


def check_hybrid(rows):
    by_placement = {row["placement"]: row for row in rows}
    locality = by_placement["locality"]
    hybrid = by_placement["hybrid"]
    naive = by_placement["hybrid-position"]
    # Security: scattering secondaries slashes adversarial capture.
    assert hybrid["captured_fraction"] < locality["captured_fraction"] / 5
    # Availability under a contiguous (rack-like) outage improves.
    assert hybrid["readable_under_arc_outage"] > locality["readable_under_arc_outage"]
    # Bulk reads regain traditional-like fanout...
    assert hybrid["bulk_read_fanout"] > 5 * locality["bulk_read_fanout"]
    # ...but ONLY with rank-based hashing: the naive position-based
    # construction collapses once balancing has clustered node IDs.
    assert naive["bulk_read_fanout"] <= 2 * locality["bulk_read_fanout"]


def check_hotspot(rows):
    base = next(r for r in rows if r["scheme"] == "replicas-only")
    cached = next(r for r in rows if r["scheme"] == "retrieval-caches")
    # Caches must flatten the hot spot markedly and recruit more servers.
    assert cached["max_over_mean_requests"] < 0.6 * base["max_over_mean_requests"]
    assert cached["nodes_serving"] >= base["nodes_serving"]
    assert cached["cache_hit_fraction"] > 0.5


def check_erasure(rows):
    by = {(r["system"], r["redundancy"]): r["unavailability"] for r in rows}
    # The paper's claim: D2's advantage holds under every redundancy scheme.
    for scheme in ("replication r=3", "erasure (6,2)", "erasure (4,2)"):
        assert by[("d2", scheme)] <= by[("traditional", scheme)]
    # At matched 3x storage, (6,2) is at least as available as replication.
    assert by[("d2", "erasure (6,2)")] <= by[("d2", "replication r=3")] + 1e-9
    # Headline: D2 at 2x storage beats traditional at 3x.
    assert by[("d2", "erasure (4,2)")] < by[("traditional", "replication r=3")]


def check_ablations(pointers, thresholds, ttls, replicas, sampling):
    on = next(r for r in pointers if r["pointers"] == "on")
    off = next(r for r in pointers if r["pointers"] == "off")
    # Pointers must cut migration markedly without hurting final balance.
    assert on["migrated_mb"] < 0.7 * off["migrated_mb"]
    assert on["final_nsd"] < 1.0

    by_t = {row["threshold"]: row for row in thresholds}
    # Looser thresholds tolerate more imbalance...
    assert by_t[8.0]["max_over_mean"] >= by_t[2.5]["max_over_mean"] - 0.25
    # ...and every run respects its own t-factor bound.
    for row in thresholds:
        assert row["max_over_mean"] <= row["threshold"] + 0.5

    by_ttl = {row["ttl_s"]: row for row in ttls}
    short, mid, long = by_ttl[60.0], by_ttl[4500.0], by_ttl[1e9]
    # A short TTL discards valid entries (high miss rate)...
    assert short["miss_rate"] > mid["miss_rate"]
    # ...an infinite TTL accrues stale entries (more misdirected requests).
    assert long["stale_redirects"] >= mid["stale_redirects"]
    # The paper's middle-ground TTL minimizes total lookup work here.
    assert mid["total_lookup_cost"] <= short["total_lookup_cost"]

    # More replicas help both, D2 at least as much (paper: r=4 makes D2
    # failure-free while traditional still fails).
    for row in replicas:
        assert row["unavail_d2"] <= row["unavail_traditional"]
    d2 = [row["unavail_d2"] for row in replicas]
    trad = [row["unavail_traditional"] for row in replicas]
    assert d2[-1] <= d2[0]
    assert trad[-1] <= trad[0]

    by = {row["sampling"]: row for row in sampling}
    walk = by["random-walk"]
    member = by["membership"]
    # The decentralized sampler must reach comparable balance...
    assert walk["max_over_mean"] <= 4.5
    assert walk["final_nsd"] <= 2.0 * member["final_nsd"] + 0.2
    # ...without pathological extra movement.
    assert walk["moves"] <= 3 * member["moves"] + 5


def check_scale(rows):
    *routing, read = rows
    # The batched walk beats cold per-lookup routing by a wide margin.
    for row in routing:
        assert row["speedup_vs_cold"] >= 5.0, row
    # Streaming export keeps the read replay's peak RSS flat once warm.
    # (CI's scale-smoke also caps the peak itself, in a process of its own;
    # here it is the high-water mark of every bench that ran before.)
    assert read["rss_growth_kb"] <= 4096, read
    assert read["streamed_rows"] == read["windows"] > 0, read
    # The committed owner-sequence checksum of the 10^5-user read cell.
    assert read["checksum"] == "e053857577af43ed", read


def check_accel(rows):
    by = {(r["mode"], r["scenario"]): r for r in rows}
    for scenario in ("hotspot", "churn"):
        none = by[("none", scenario)]
        static = by[("cache", scenario)]
        adaptive = by[("cache+adaptive", scenario)]
        assert static["checksum"] == none["checksum"], scenario  # owners agree
        assert static["messages"] < none["messages"], scenario
        assert adaptive["messages"] <= static["messages"], scenario
        assert adaptive["hit_recovered"] >= static["hit_recovered"], scenario
    hot = by[("cache+adaptive", "hotspot")]
    assert hot["hit_recovered"] >= 0.9 > by[("cache", "hotspot")]["hit_recovered"], hot
    assert by[("all", "churn")]["membership_evictions"] > 0


#: registry name -> paper-shape check of that entry's rows.
SHAPE_CHECKS = {
    "table1": check_table1, "fig3": check_fig3, "fig7": check_fig7,
    "fig8": check_fig8, "table2": check_table2, "fig9": check_fig9,
    "fig10": check_fig10, "fig11": check_fig11, "fig12": check_fig12,
    "fig13": check_fig13, "fig14": check_fig14, "fig15": check_fig15,
    "table3": check_table3, "churn": check_churn, "fig16": check_fig16,
    "fig17": check_fig17, "table4": check_table4, "hybrid": check_hybrid,
    "hotspot": check_hotspot, "erasure": check_erasure,
    "ablations": check_ablations, "scale": check_scale, "accel": check_accel,
}


#: Checks that do not hold at the committed laptop scale.  `erasure`: D2
#: loses 4 of 424 tasks under erasure (6,2) where traditional loses none,
#: so the first claim fails — as it did in `bench_ext_erasure.py` on the
#: commit this file replaced it (rows unchanged since).
KNOWN_SHAPE_GAPS = {
    "erasure": "D2 (6,2) unavailability 9.4e-3 > traditional 0 at laptop scale",
}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        reason=KNOWN_SHAPE_GAPS[name], raises=AssertionError, strict=True))
    if name in KNOWN_SHAPE_GAPS else name
    for name in FIGURES
])
def test_figure(benchmark, name, tmp_path, monkeypatch):
    # `scale` and `accel` append a run to the trajectory file: a bench
    # run must not touch the committed BENCH_scale.json.
    monkeypatch.setenv(BENCH_ENV, str(tmp_path / "BENCH_scale.json"))
    figure = FIGURES[name]
    rows = run_once(benchmark, figure.rows)
    print()
    print(figure.render(rows))
    SHAPE_CHECKS[name](*rows)
