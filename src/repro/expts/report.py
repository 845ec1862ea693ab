"""Artifact rendering: RESULTS.json and RESULTS.md.

``scripts/run_experiments.py`` turns a list of
:class:`~repro.expts.runner.ExperimentResult` into the byte-reproducible
``RESULTS.json`` and the auto-generated ``RESULTS.md`` (one section per
figure/table, markdown tables, paper-anchor cross-references).
"""

from __future__ import annotations

import json
from typing import Optional

from repro.testbed.reporting import markdown_table


def standalone_command(spec_id: str) -> str:
    """The command that runs one spec's full grid alone and prints its
    table."""
    return (f"PYTHONPATH=src python scripts/run_experiments.py --full "
            f"--only {spec_id}")


# ---------------------------------------------------------------------------
# RESULTS.json
# ---------------------------------------------------------------------------

def results_report(results: list, quick: bool, fingerprint: str) -> dict:
    """The ``RESULTS.json`` structure for a list of experiment results.

    Byte-reproducible: contains no wall-clock data, only simulated metrics
    and the code fingerprint the cells were computed under.  Serialise with :func:`dump_results_json` so key order, float
    formatting and the trailing newline are stable too.
    """
    return {
        "metadata": {
            "artifact": "RESULTS.json",
            "generator": "scripts/run_experiments.py",
            "code_fingerprint": fingerprint,
            "quick": quick,
            "num_experiments": len(results),
            "experiments": [result.spec.spec_id for result in results],
        },
        "experiments": [result.to_json() for result in results],
    }


def dump_results_json(report: dict) -> str:
    """Canonical serialisation of :func:`results_report` output."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# RESULTS.md
# ---------------------------------------------------------------------------

def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading.

    Lowercase; alphanumerics kept; spaces and dashes become dashes; all
    other punctuation (including backticks) dropped.  Single source of
    truth for anchors: the RESULTS.md table of contents is generated with
    it and ``scripts/check_docs_links.py`` validates anchors against it,
    so the two can never disagree.
    """
    slug = []
    for char in heading.strip().lower():
        if char.isalnum():
            slug.append(char)
        elif char in " -":
            slug.append("-")
    return "".join(slug)


def render_results_markdown(report: dict) -> str:
    """``RESULTS.md`` from a :func:`results_report` structure.

    One section per experiment: paper anchor, description, declarative
    bindings, the reproduced table (``n/a`` for absent float cells) and the
    paper-claim checks that guarded it.
    """
    metadata = report["metadata"]
    mode = "quick" if metadata["quick"] else "full"
    lines = [
        "# RESULTS — reproduced figures and tables",
        "",
        "Auto-generated by `scripts/run_experiments.py`; do not edit by "
        "hand. Regenerate with:",
        "",
        "```",
        f"PYTHONPATH=src python scripts/run_experiments.py --{mode}",
        "```",
        "",
        f"- mode: **{mode}**",
        f"- code fingerprint: `{metadata['code_fingerprint']}`",
        f"- experiments: {metadata['num_experiments']}",
        "- machine-readable artifact: [`RESULTS.json`](RESULTS.json)",
        "- experiment definitions: `src/repro/expts/paper.py` "
        "(see [ARCHITECTURE.md](ARCHITECTURE.md))",
        "",
        "## Contents",
        "",
    ]
    for experiment in report["experiments"]:
        spec = experiment["spec"]
        heading = f"{spec['paper_anchor']} — {spec['title']}"
        lines.append(f"- [{heading}](#{github_slug(heading)})")
    lines.append("")

    for experiment in report["experiments"]:
        spec = experiment["spec"]
        lines.append(f"## {spec['paper_anchor']} — {spec['title']}")
        lines.append("")
        lines.append(spec["description"])
        lines.append("")
        if spec["bindings"]:
            bound = "; ".join(f"{key}: {value}"
                              for key, value in sorted(spec["bindings"].items()))
            lines.append(f"*Bindings — {bound}.*")
            lines.append("")
        rows = [row for cell in experiment["cells"] for row in cell["rows"]]
        lines.append(markdown_table(spec["headers"], rows))
        lines.append("")
        cells_run = len(experiment["cells"])
        detail = (f"{cells_run}/{spec['num_cells']} grid cells (quick subsample)"
                  if experiment["quick"] and cells_run < spec["num_cells"]
                  else f"{cells_run} grid cells")
        lines.append(f"*Standalone: `{standalone_command(spec['spec_id'])}` "
                     f"· registry id `{spec['spec_id']}` · {detail}.*")
        if spec["checks"]:
            lines.append("")
            lines.append("Verified paper claims:")
            lines.append("")
            for check in spec["checks"]:
                name = check.replace("check_", "").replace("_", " ")
                lines.append(f"- {name}")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def write_artifacts(results: list, quick: bool, fingerprint: str,
                    json_path: Optional[str], markdown_path: Optional[str]) -> dict:
    """Write RESULTS.json / RESULTS.md (either may be None to skip)."""
    report = results_report(results, quick=quick, fingerprint=fingerprint)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(dump_results_json(report))
    if markdown_path:
        with open(markdown_path, "w", encoding="utf-8") as handle:
            handle.write(render_results_markdown(report))
    return report
