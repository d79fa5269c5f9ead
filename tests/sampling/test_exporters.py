"""Tests of the sample exporters and the rank-aware trace plumbing."""

import json

from repro.arming import _rank_path
from repro.ompt.exporters import (merge_chrome_traces,
                                  validate_chrome_trace)
from repro.sampling.exporters import (collapsed_text,
                                      speedscope_profile,
                                      validate_collapsed,
                                      validate_speedscope,
                                      write_collapsed,
                                      write_speedscope)
from repro.sampling.sampler import FoldedStore


def make_store() -> FoldedStore:
    store = FoldedStore()
    hot = ("main (app.py:3)", "<omp for @ app.py:9>",
           "kernel (app.py:10)")
    for _ in range(3):
        store.add(("<omp for @ app.py:9>",), hot, "cpu")
    store.add(("<omp for @ app.py:9>",), hot[:2], "wait")
    return store


class TestCollapsed:
    def test_round_trips_counts_and_wait_marker(self):
        text = collapsed_text(make_store())
        lines = text.splitlines()
        assert lines[0].endswith(" 3")  # most frequent first
        assert any(line.rpartition(" ")[0].endswith("[wait]")
                   for line in lines)
        assert validate_collapsed(text) == []

    def test_semicolons_in_frames_are_escaped(self):
        store = FoldedStore()
        store.add((), ("weird;frame ()",), "cpu")
        text = collapsed_text(store)
        assert validate_collapsed(text) == []
        assert "weird,frame" in text

    def test_validator_flags_malformed_lines(self):
        assert validate_collapsed("stack;frame notanumber")
        assert validate_collapsed("stack;frame 0")
        assert validate_collapsed("a;;b 3")
        assert validate_collapsed("") == []

    def test_write_collapsed(self, tmp_path):
        path = tmp_path / "samples.collapsed"
        write_collapsed(path, make_store())
        assert validate_collapsed(path.read_text()) == []


class TestSpeedscope:
    def test_profile_per_state_with_second_weights(self):
        payload = speedscope_profile(make_store(), interval=0.005,
                                     name="unit")
        assert validate_speedscope(payload) == []
        by_name = {profile["name"]: profile
                   for profile in payload["profiles"]}
        assert set(by_name) == {"unit [cpu]", "unit [wait]"}
        cpu = by_name["unit [cpu]"]
        assert cpu["weights"] == [3 * 0.005]
        assert cpu["endValue"] == sum(cpu["weights"])
        frames = payload["shared"]["frames"]
        names = [frame["name"] for frame in frames]
        assert "<omp for @ app.py:9>" in names

    def test_validator_flags_schema_problems(self):
        assert validate_speedscope([]) == ["top level must be an object"]
        assert validate_speedscope({"$schema": "nope"})
        good = speedscope_profile(make_store(), interval=0.005)
        bad = json.loads(json.dumps(good))
        bad["profiles"][0]["samples"][0] = [999]
        assert any("out of range" in problem
                   for problem in validate_speedscope(bad))
        bad = json.loads(json.dumps(good))
        bad["profiles"][0]["weights"].append(1.0)
        assert any("samples vs" in problem
                   for problem in validate_speedscope(bad))

    def test_write_speedscope(self, tmp_path):
        path = tmp_path / "samples.speedscope.json"
        write_speedscope(path, make_store(), interval=0.005)
        payload = json.loads(path.read_text())
        assert validate_speedscope(payload) == []


class TestMerge:
    @staticmethod
    def trace(rank, epoch, ts=100.0):
        return {
            "traceEvents": [
                {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0,
                 "ts": 0, "args": {"name": "main"}},
                {"name": "work", "ph": "i", "s": "t", "ts": ts,
                 "pid": 1, "tid": 0, "args": {}},
            ],
            "displayTimeUnit": "ms",
            "otherData": {"rank": rank, "backend": "gil",
                          "epoch_start_unix_s": epoch,
                          "dropped_events": 1},
        }

    def test_ranks_become_processes_on_a_common_base(self):
        merged = merge_chrome_traces(
            [self.trace(0, 100.0), self.trace(1, 100.5)])
        assert validate_chrome_trace(merged) == []
        other = merged["otherData"]
        assert other["ranks"] == 2
        assert other["epoch_start_unix_s"] == 100.0
        assert other["backend"] == "gil"
        assert other["dropped_events"] == 2
        assert other["unaligned_ranks"] == []
        instants = [row for row in merged["traceEvents"]
                    if row["ph"] == "i"]
        by_pid = {row["pid"]: row for row in instants}
        assert set(by_pid) == {0, 1}
        # Rank 1 started 0.5 s later: its events shift by 0.5e6 µs.
        assert by_pid[0]["ts"] == 100.0
        assert by_pid[1]["ts"] == 100.0 + 0.5e6
        process_rows = [row for row in merged["traceEvents"]
                        if row["name"] == "process_name"]
        assert [row["pid"] for row in process_rows] == [0, 1]

    def test_anchorless_payload_merges_unshifted(self):
        second = self.trace(1, 100.5)
        del second["otherData"]["epoch_start_unix_s"]
        merged = merge_chrome_traces(
            [self.trace(0, 100.0), second])
        assert merged["otherData"]["unaligned_ranks"] == [1]
        instants = [row for row in merged["traceEvents"]
                    if row["ph"] == "i"]
        by_pid = {row["pid"]: row for row in instants}
        assert by_pid[1]["ts"] == 100.0  # unshifted

    def test_missing_rank_falls_back_to_position(self):
        first = self.trace(0, 100.0)
        del first["otherData"]["rank"]
        merged = merge_chrome_traces([first])
        assert {row["pid"] for row in merged["traceEvents"]} == {0}


class TestRankNaming:
    def test_rank_path_preserves_suffix(self):
        assert _rank_path("out/trace.json", 3) == "out/trace.rank3.json"
        assert _rank_path("samples.collapsed", 0) \
            == "samples.rank0.collapsed"

    def test_env_rank_reads_launcher_variables(self, monkeypatch):
        from repro.mpi.launcher import env_rank
        for variable in ("OMPI_COMM_WORLD_RANK", "PMI_RANK",
                         "PMIX_RANK", "SLURM_PROCID"):
            monkeypatch.delenv(variable, raising=False)
        assert env_rank() is None
        monkeypatch.setenv("PMI_RANK", "3")
        assert env_rank() == 3
        # First parseable variable wins; junk is skipped.
        monkeypatch.setenv("OMPI_COMM_WORLD_RANK", "not-a-rank")
        assert env_rank() == 3
        monkeypatch.setenv("OMPI_COMM_WORLD_RANK", "1")
        assert env_rank() == 1
