"""Every single-point command runs one JobSpec through execute_job.

``run`` (in-process or supervised), ``sweep`` and ``profile`` must agree
on what a point is: a PARSEC program runs as 4 threads everywhere, and
the supervised path reproduces the in-process output byte for byte.
"""

import json

import pytest

from repro.cli.main import main


def cli_out(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestParsecPoint:
    def test_run_uses_four_threads_in_and_out_of_process(self, capsys):
        plain = cli_out(capsys, "run", "tagless", "swaptions",
                        "--accesses", "2000", "--json")
        assert len(json.loads(plain)["per_core_ipc"]) == 4
        supervised = cli_out(capsys, "run", "tagless", "swaptions",
                             "--accesses", "2000", "--json",
                             "--timeout", "60")
        assert supervised == plain

    def test_run_matches_sweep_row(self, tmp_path, capsys):
        run = json.loads(cli_out(capsys, "run", "tagless", "swaptions",
                                 "--accesses", "2000", "--json"))
        artifact = tmp_path / "sweep.jsonl"
        cli_out(capsys, "sweep", "--workloads", "swaptions",
                "--designs", "tagless", "--accesses", "2000",
                "--no-cache", "--out", str(artifact))
        rows = [json.loads(line) for line in artifact.read_text().splitlines()]
        (job,) = [row for row in rows if row.get("record") == "job"]
        assert job["spec"]["num_cores"] == 4
        assert job["metrics"]["ipc"] == run["ipc"]

    def test_profile_counts_every_thread(self, capsys):
        report = json.loads(cli_out(capsys, "profile", "--workload",
                                    "swaptions", "--accesses", "2000",
                                    "--json"))
        assert report["accesses"] == 8000


@pytest.fixture
def machine_file(tmp_path):
    path = tmp_path / "window.json"
    path.write_text(json.dumps({
        "preset": "table3",
        "overrides": {"core.model": "window", "tlb.walk_cycles": 50},
    }))
    return str(path)


@pytest.mark.parametrize("workload", ["sphinx3", "MIX1"])
@pytest.mark.parametrize("machine", ["set", "file"])
def test_supervised_and_in_process_runs_agree(capsys, machine_file,
                                              workload, machine):
    if machine == "set":
        machine_args = ["--set", "dram_cache.gipt_in_package=true"]
    else:
        machine_args = ["--machine", machine_file]
    argv = ["run", "tagless", workload, "--accesses", "2000", "--json",
            *machine_args]
    plain = cli_out(capsys, *argv)
    supervised = cli_out(capsys, *argv, "--timeout", "60", "--retries", "1")
    assert supervised == plain
    metrics = json.loads(plain)
    assert "machine" in metrics
    assert len(metrics["per_core_ipc"]) == (4 if workload == "MIX1" else 1)
