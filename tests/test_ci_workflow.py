"""The CI workflow is code too: it must parse, compile and import.

``.github/workflows/ci.yml`` did not parse as YAML from PR 10 to PR 15
and nothing noticed; its inline scripts import experiment code by name
and so does the verify recipe.  Held here: the workflow parses, every
``python - <<'EOF'`` body compiles, and every ``from repro… import name``
in the workflow and in ``.claude/skills/verify/SKILL.md`` resolves.
"""

import importlib
import re
import textwrap
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
VERIFY_RECIPE = ROOT / ".claude" / "skills" / "verify" / "SKILL.md"

_HEREDOC = re.compile(r"python - <<'EOF'\n(.*?)\n\s*EOF", re.DOTALL)
_IMPORT = re.compile(r"from (repro[\w.]*) import (?:\(([^)]*)\)|([\w, ]+))")


def unresolved_imports(text):
    """``module.name`` for every ``from repro… import name`` that does not resolve."""
    missing = []
    for module_name, bracketed, inline in _IMPORT.findall(text):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(module_name)
            continue
        missing.extend(
            f"{module_name}.{name}"
            for name in re.findall(r"\w+", bracketed or inline)
            if not hasattr(module, name)
        )
    return missing


def run_steps():
    """``(job, step name, run text)`` for every ``run:`` step of the workflow."""
    workflow = yaml.safe_load(WORKFLOW.read_text())
    return [
        (job, step.get("name", ""), step["run"])
        for job, spec in workflow["jobs"].items()
        for step in spec["steps"]
        if "run" in step
    ]


def test_workflow_parses_and_inline_scripts_compile():
    steps = run_steps()
    bodies = [
        (f"{job}: {name}", textwrap.dedent(body))
        for job, name, run in steps
        for body in _HEREDOC.findall(run)
    ]
    assert len(bodies) >= 6, "the inline smoke scripts went missing"
    for where, body in bodies:
        compile(body, where, "exec")


def test_every_repro_import_resolves():
    texts = {"ci.yml": "\n".join(run for _, _, run in run_steps())}
    if VERIFY_RECIPE.exists():
        texts["SKILL.md"] = VERIFY_RECIPE.read_text()
    for where, text in texts.items():
        assert _IMPORT.search(text), f"{where} imports nothing from repro"
        assert unresolved_imports(text) == [], where


def test_a_missing_name_is_caught():
    script = (
        "from repro.experiments.figures import FIGURES, NO_SUCH_NAME\n"
        "from repro.experiments.fig9_lookup_traffic import run_fig9\n"
    )
    assert unresolved_imports(script) == [
        "repro.experiments.figures.NO_SUCH_NAME",
        "repro.experiments.fig9_lookup_traffic",
    ]
