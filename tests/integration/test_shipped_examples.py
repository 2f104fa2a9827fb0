"""Every shipped example study runs, at a reduced size.

The studies under ``examples/studies`` are what the README and
EXPERIMENTS.md tell users to run.  Each campaign study runs through
``repro campaign run`` and the example tenant scenario through
``repro tenants`` (with the documented flags), shrunk to a few hundred
accesses per point.  Shrinking touches only access counts: machines,
tenant counts and footprints stay as shipped, so a scenario that does
not fit its machine still fails here.
"""

import json
import pathlib

import pytest

from repro.cli.main import main

ROOT = pathlib.Path(__file__).resolve().parents[2]
STUDIES = sorted((ROOT / "examples" / "studies").glob("*.json"))
CAMPAIGNS = [p for p in STUDIES if "factors" in json.loads(p.read_text())]
SCENARIOS = [p for p in STUDIES if "tenants" in json.loads(p.read_text())]

#: Accesses per trace-driven point.
ACCESSES = 300
#: Divisor for scenario access counts: 48 tenants at a mean of ~10
#: accesses each, with the resize events moved into that window.
SCENARIO_SHRINK = 400


def reduced_scenario(path, tmp_path):
    data = json.loads(path.read_text())
    data["tenant_accesses"] = max(1, data["tenant_accesses"]
                                  // SCENARIO_SHRINK)
    data["quantum"] = max(1, data["quantum"] // SCENARIO_SHRINK)
    data["resize"] = [[max(1, at // SCENARIO_SHRINK), capacity]
                      for at, capacity in data.get("resize", [])]
    out = tmp_path / path.name
    out.write_text(json.dumps(data))
    return str(out)


def reduced_study(path, tmp_path):
    data = json.loads(path.read_text())
    data["repetitions"] = 2
    fixed = data["fixed"]
    assert "accesses" not in data["factors"]
    assert "scenario" not in data["factors"]
    if "accesses" in fixed:
        fixed["accesses"] = ACCESSES
    if "scenario" in fixed:
        fixed["scenario"] = reduced_scenario(ROOT / fixed["scenario"],
                                             tmp_path)
    out = tmp_path / f"study-{path.name}"
    out.write_text(json.dumps(data))
    return str(out)


def test_examples_are_found():
    assert CAMPAIGNS and SCENARIOS


@pytest.mark.parametrize("path", CAMPAIGNS, ids=lambda p: p.stem)
def test_example_campaign_runs(path, tmp_path, capsys):
    study = reduced_study(path, tmp_path)
    code = main(["campaign", "run", study, "--out", str(tmp_path / "out"),
                 "--jobs", "1", "--no-cache", "--json"])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert summary["errors"] == 0
    assert summary["missing_points"] == 0
    assert summary["computed"] == summary["jobs"] > 0


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_example_scenario_replays(path, tmp_path, capsys):
    scenario = reduced_scenario(path, tmp_path)
    # The flags EXPERIMENTS.md and the README document for this file.
    code = main(["tenants", scenario, "--scale", "64", "--validate",
                 "--every", "100", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(report["tenants"]) == json.loads(path.read_text())["tenants"]
    assert report["context_switches"] > 0
    assert report["resize_events"]
