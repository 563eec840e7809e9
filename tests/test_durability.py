"""Durability harness: checksummed block store, write-ahead solve
journal, and crash-resume.

The invariant under test is the robustness counterpart of the chaos
suite: a solve that is killed (simulated crash hook, or a real SIGKILL
in the CLI test) after any journaled iteration and then re-run with
``resume`` must produce output *bit-identical* to an uninterrupted run
— for both the In-Memory and Collect-Broadcast strategies — and any
corruption of the durable bytes must be detected by checksum, never
served as data: reads raise :class:`CorruptBlockError`, ``fsck``
reports the damage, and the solvers recover by recomputation.
"""

import ast
import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main as cli_main
from repro.core.dpspark import GepSparkSolver, make_kernel
from repro.core.gep import FloydWarshallGep, GaussianEliminationGep
from repro.sparkle import (
    BlockNotFoundError,
    CorruptBlockError,
    DurableBlockStore,
    EngineMetrics,
    FaultPlan,
    FaultSpec,
    JournalError,
    ResumeMismatchError,
    SolveJournal,
    SparkleContext,
)

from .conftest import fw_table, ge_table

pytestmark = pytest.mark.durability

REPO_ROOT = Path(__file__).resolve().parents[1]

SPECS = {"fw": FloydWarshallGep(), "ge": GaussianEliminationGep()}
TABLES = {"fw": fw_table(16, seed=3), "ge": ge_table(16, seed=3)}
R = 4  # 4x4 tile grid -> nt = 4 outer iterations on these tables


def solve(
    table,
    spec,
    strategy,
    *,
    ckdir=None,
    plan=None,
    resume=False,
    max_iterations=None,
    on_iteration=None,
    checkpoint_every=None,
):
    with SparkleContext(
        3,
        2,
        fault_plan=plan,
        checkpoint_dir=str(ckdir) if ckdir is not None else None,
    ) as sc:
        kernel = make_kernel(spec, "iterative", r_shared=2, base_size=4)
        solver = GepSparkSolver(
            spec,
            sc,
            r=R,
            kernel=kernel,
            strategy=strategy,
            checkpoint_every=checkpoint_every,
            resume=resume,
            max_iterations=max_iterations,
            on_iteration=on_iteration,
        )
        out, report = solver.solve(table)
        return out, report, sc.metrics


class _SimCrash(RuntimeError):
    """Raised from the on_iteration hook to stop a solve mid-flight.

    The hook runs *after* iteration ``k`` is snapshotted and journaled,
    so raising at ``k`` models a driver crash with ``k`` committed.
    """


def run_until_crash(table, spec, strategy, ckdir, kill_k, plan=None):
    def die(k):
        if k == kill_k:
            raise _SimCrash(k)

    with pytest.raises(_SimCrash):
        solve(table, spec, strategy, ckdir=ckdir, plan=plan, on_iteration=die)


def flip_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def snapshot_block_path(ckdir: Path, k: int, i: int, j: int) -> Path:
    key_repr = repr(("snap", k, i, j))
    return Path(ckdir) / "blocks" / DurableBlockStore._filename(key_repr)


@pytest.fixture(scope="module")
def clean():
    """Fault-free, checkpoint-free outputs: the bit-identity baseline."""
    return {
        (name, strategy): solve(TABLES[name], SPECS[name], strategy)[0]
        for name in ("fw", "ge")
        for strategy in ("im", "cb")
    }


# ----------------------------------------------------------------------
# DurableBlockStore
# ----------------------------------------------------------------------
class TestDurableBlockStore:
    def test_roundtrip_persistence_and_accounting(self, tmp_path):
        metrics = EngineMetrics()
        store = DurableBlockStore(tmp_path / "ck", metrics=metrics)
        arr = np.arange(64.0).reshape(8, 8)
        nbytes = store.put(("snap", 0, 1, 2), arr)
        store.put("scalar", {"x": 3})
        assert len(store) == 2
        assert store.contains(("snap", 0, 1, 2))
        assert store.live_bytes >= nbytes
        np.testing.assert_array_equal(store.get(("snap", 0, 1, 2)), arr)
        assert metrics.durable_puts == 2
        assert metrics.durable_gets == 1
        assert metrics.durable_bytes_written >= nbytes
        # a fresh handle on the same directory sees the committed state
        reopened = DurableBlockStore(tmp_path / "ck")
        np.testing.assert_array_equal(reopened.get(("snap", 0, 1, 2)), arr)
        assert reopened.get("scalar") == {"x": 3}
        # atomic-write protocol leaves no temp files behind
        assert not list((tmp_path / "ck").rglob(".tmp.*"))

    def test_missing_key_is_typed(self, tmp_path):
        store = DurableBlockStore(tmp_path / "ck")
        with pytest.raises(BlockNotFoundError) as exc_info:
            store.get(("snap", 9, 9, 9))
        # still a KeyError for callers written against the dict idiom
        assert isinstance(exc_info.value, KeyError)
        assert exc_info.value.key == ("snap", 9, 9, 9)

    def test_disk_corruption_detected_and_fscked(self, tmp_path):
        metrics = EngineMetrics()
        store = DurableBlockStore(tmp_path / "ck", metrics=metrics)
        store.put("good", np.ones(16))
        store.put("bad", np.full(16, 7.0))
        flip_byte(store.blocks_dir / store._filename(repr("bad")))
        np.testing.assert_array_equal(store.get("good"), np.ones(16))
        with pytest.raises(CorruptBlockError):
            store.get("bad")
        assert metrics.corrupt_blocks_detected == 1
        report = store.fsck()
        assert not report.clean
        assert report.corrupt == [repr("bad")]
        assert report.blocks_ok == 1
        # dropping the rotten block restores a clean bill of health
        assert store.delete("bad")
        assert store.fsck().clean

    def test_missing_file_and_orphans(self, tmp_path):
        store = DurableBlockStore(tmp_path / "ck")
        store.put("a", 1)
        store.put("b", 2)
        (store.blocks_dir / store._filename(repr("b"))).unlink()
        # an uncommitted stray block (crash between rename and manifest)
        (store.blocks_dir / "deadbeefdeadbeefdeadbeef.blk").write_bytes(b"?")
        report = store.fsck()
        assert report.missing == [repr("b")]
        assert report.orphans == ["deadbeefdeadbeefdeadbeef.blk"]
        assert not report.clean

    def test_manifest_version_guard(self, tmp_path):
        DurableBlockStore(tmp_path / "ck").put("a", 1)
        manifest = tmp_path / "ck" / "MANIFEST.json"
        doc = json.loads(manifest.read_text())
        doc["version"] = 99
        manifest.write_text(json.dumps(doc))
        with pytest.raises(JournalError):
            DurableBlockStore(tmp_path / "ck")

    def test_torn_write_chaos_auto_heals(self, tmp_path):
        metrics = EngineMetrics()
        plan = FaultPlan(11, [FaultSpec("torn_write", 1.0)])
        store = DurableBlockStore(
            tmp_path / "ck", metrics=metrics, fault_plan=plan
        )
        arr = np.arange(128.0)
        store.put(("t", 0), arr)
        # the torn first attempt was caught by read-back and rewritten
        np.testing.assert_array_equal(store.get(("t", 0)), arr)
        assert plan.fired()["torn_write"] == 1
        assert metrics.torn_writes_detected == 1
        assert store.fsck().clean

    def test_corrupt_block_chaos_is_never_served(self, tmp_path):
        metrics = EngineMetrics()
        plan = FaultPlan(7, [FaultSpec("corrupt_block", 1.0)])
        store = DurableBlockStore(
            tmp_path / "ck", metrics=metrics, fault_plan=plan
        )
        store.put("blob", np.ones(32))
        with pytest.raises(CorruptBlockError):
            store.get("blob")
        assert metrics.corrupt_blocks_detected == 1
        assert store.fsck().corrupt == [repr("blob")]


# ----------------------------------------------------------------------
# SolveJournal
# ----------------------------------------------------------------------
class TestSolveJournal:
    def test_append_replay_and_torn_tail(self, tmp_path):
        journal = SolveJournal(tmp_path)
        journal.append({"kind": "begin", "fingerprint": "f"})
        journal.append({"kind": "iteration", "k": 0})
        journal.append({"kind": "iteration", "k": 1})
        # SIGKILL mid-append: a partial trailing line
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "iteration", "k": 2, "se')
        view = journal.verify()
        assert view["records_total"] == 4
        assert view["records_valid"] == 3
        assert view["torn_tail"] and not view["complete"]
        assert view["last_iteration"] == 1
        # resume truncates the torn tail and extends committed history
        resumed = SolveJournal(tmp_path)
        kinds = [e["kind"] for e in resumed.truncate_to_valid()]
        assert kinds == ["begin", "iteration", "iteration"]
        assert not resumed.verify()["torn_tail"]
        resumed.append({"kind": "done"})
        assert resumed.verify()["complete"]

    def test_tampered_record_invalidates_suffix(self, tmp_path):
        journal = SolveJournal(tmp_path)
        for k in range(3):
            journal.append({"kind": "iteration", "k": k})
        lines = journal.path.read_text().splitlines()
        doc = json.loads(lines[1])
        doc["k"] = 99  # bit-flip without resealing the checksum
        lines[1] = json.dumps(doc, sort_keys=True)
        journal.path.write_text("\n".join(lines) + "\n")
        assert [e["k"] for e in SolveJournal(tmp_path).entries()] == [0]

    def test_sequence_gap_invalidates_suffix(self, tmp_path):
        journal = SolveJournal(tmp_path)
        for k in range(3):
            journal.append({"kind": "iteration", "k": k})
        lines = journal.path.read_text().splitlines()
        del lines[1]
        journal.path.write_text("\n".join(lines) + "\n")
        assert [e["k"] for e in SolveJournal(tmp_path).entries()] == [0]

    def test_reset(self, tmp_path):
        journal = SolveJournal(tmp_path)
        journal.append({"kind": "iteration", "k": 0})
        journal.reset()
        assert journal.entries() == []
        assert journal.exists


# ----------------------------------------------------------------------
# the journal's snapshots and CB shared storage
# ----------------------------------------------------------------------
class TestDurableEngineIntegration:
    @pytest.mark.parametrize("checkpoint_every", [None, 1])
    @pytest.mark.parametrize("strategy", ["im", "cb"])
    @pytest.mark.parametrize("name", ["fw", "ge"])
    def test_journaled_solve_keeps_two_snapshots_and_no_rdd_blocks(
        self, tmp_path, clean, name, strategy, checkpoint_every
    ):
        """The snapshot is a journaled solve's one durable recovery
        point: the store ends holding the last two journaled iterations'
        snapshots (older ones pruned) and nothing else — no ``("rdd",
        ...)`` block whatever ``checkpoint_every`` asks, and no CB
        pivot or panel (shared storage is not written through)."""
        ckdir = tmp_path / "ck"
        out, _, _ = solve(
            TABLES[name], SPECS[name], strategy,
            ckdir=ckdir, checkpoint_every=checkpoint_every,
        )
        assert out.tobytes() == clean[name, strategy].tobytes()
        keys = [ast.literal_eval(k) for k in DurableBlockStore(ckdir).keys()]
        journaled = [
            e["k"] for e in SolveJournal(ckdir).entries() if e["kind"] == "iteration"
        ]
        assert len(journaled) > 2  # something was pruned
        snaps = [key for key in keys if key[0] == "snap"]
        assert sorted({key[1] for key in snaps}) == journaled[-2:]
        assert len(snaps) == 2 * R * R
        assert {key[0] for key in keys} == {"snap"}

    def test_shared_storage_miss_is_typed(self):
        with SparkleContext(1, 1) as sc:
            with pytest.raises(BlockNotFoundError) as exc_info:
                sc.shared_storage.get("nope")
            assert isinstance(exc_info.value, KeyError)


# ----------------------------------------------------------------------
# crash-resume equivalence (in-process crash hook)
# ----------------------------------------------------------------------
class TestCrashResume:
    @pytest.mark.parametrize("strategy", ["im", "cb"])
    @pytest.mark.parametrize("problem", ["fw", "ge"])
    def test_kill_then_resume_bit_identical(
        self, clean, tmp_path, problem, strategy
    ):
        table, spec = TABLES[problem], SPECS[problem]
        ckdir = tmp_path / "ck"
        run_until_crash(table, spec, strategy, ckdir, kill_k=1)
        out, report, metrics = solve(
            table, spec, strategy, ckdir=ckdir, resume=True
        )
        assert out.tobytes() == clean[problem, strategy].tobytes()
        assert metrics.resumed_from_iteration == 1
        assert report.extras["resumed_from_iteration"] == 1
        assert metrics.journal_entries_replayed == 3  # begin + k=0 + k=1

    @pytest.mark.parametrize("kill_k", [0, 3])
    def test_kill_at_first_and_last_iteration(self, clean, tmp_path, kill_k):
        table, spec = TABLES["fw"], SPECS["fw"]
        ckdir = tmp_path / "ck"
        run_until_crash(table, spec, "im", ckdir, kill_k=kill_k)
        out, _, metrics = solve(table, spec, "im", ckdir=ckdir, resume=True)
        assert out.tobytes() == clean["fw", "im"].tobytes()
        assert metrics.resumed_from_iteration == kill_k

    def test_resume_with_empty_dir_starts_fresh(self, clean, tmp_path):
        out, report, metrics = solve(
            TABLES["fw"], SPECS["fw"], "im", ckdir=tmp_path / "ck", resume=True
        )
        assert out.tobytes() == clean["fw", "im"].tobytes()
        assert metrics.resumed_from_iteration is None
        assert "resumed_from_iteration" not in report.extras

    def test_resume_after_completion_is_identical(self, clean, tmp_path):
        ckdir = tmp_path / "ck"
        solve(TABLES["fw"], SPECS["fw"], "cb", ckdir=ckdir)
        out, _, metrics = solve(
            TABLES["fw"], SPECS["fw"], "cb", ckdir=ckdir, resume=True
        )
        assert out.tobytes() == clean["fw", "cb"].tobytes()
        assert metrics.resumed_from_iteration == 3  # restored, not re-run

    def test_resume_rejects_different_input(self, tmp_path):
        ckdir = tmp_path / "ck"
        run_until_crash(TABLES["fw"], SPECS["fw"], "im", ckdir, kill_k=1)
        with pytest.raises(ResumeMismatchError):
            solve(fw_table(16, seed=9), SPECS["fw"], "im",
                  ckdir=ckdir, resume=True)

    def test_resume_rejects_different_strategy(self, tmp_path):
        ckdir = tmp_path / "ck"
        run_until_crash(TABLES["fw"], SPECS["fw"], "im", ckdir, kill_k=1)
        with pytest.raises(ResumeMismatchError):
            solve(TABLES["fw"], SPECS["fw"], "cb", ckdir=ckdir, resume=True)

    def test_corrupt_newest_snapshot_falls_back(self, clean, tmp_path):
        ckdir = tmp_path / "ck"
        run_until_crash(TABLES["fw"], SPECS["fw"], "im", ckdir, kill_k=2)
        nt = 16 // R
        for i in range(nt):
            for j in range(nt):
                flip_byte(snapshot_block_path(ckdir, 2, i, j))
        out, _, metrics = solve(
            TABLES["fw"], SPECS["fw"], "im", ckdir=ckdir, resume=True
        )
        # snapshot 2 is rotten; resume falls back to the retained k=1
        assert out.tobytes() == clean["fw", "im"].tobytes()
        assert metrics.resumed_from_iteration == 1
        assert metrics.corrupt_blocks_detected >= 1

    def test_all_snapshots_corrupt_recomputes_from_scratch(
        self, clean, tmp_path
    ):
        ckdir = tmp_path / "ck"
        run_until_crash(TABLES["fw"], SPECS["fw"], "im", ckdir, kill_k=0)
        nt = 16 // R
        for i in range(nt):
            for j in range(nt):
                flip_byte(snapshot_block_path(ckdir, 0, i, j))
        out, _, metrics = solve(
            TABLES["fw"], SPECS["fw"], "im", ckdir=ckdir, resume=True
        )
        # no usable snapshot: recover by recomputation, never wrong data
        assert out.tobytes() == clean["fw", "im"].tobytes()
        assert metrics.resumed_from_iteration is None
        assert metrics.corrupt_blocks_detected >= 1

    def test_staged_solve_with_max_iterations(self, clean, tmp_path):
        ckdir = tmp_path / "ck"
        _, report, _ = solve(
            TABLES["ge"], SPECS["ge"], "im", ckdir=ckdir, max_iterations=2
        )
        assert report.extras["partial"] == {
            "iterations_completed": 2,
            "grid_iterations": 4,
        }
        out, report, metrics = solve(
            TABLES["ge"], SPECS["ge"], "im", ckdir=ckdir, resume=True
        )
        assert "partial" not in report.extras
        assert out.tobytes() == clean["ge", "im"].tobytes()
        assert metrics.resumed_from_iteration == 1


# ----------------------------------------------------------------------
# property: durability knobs and faults cannot change the answer
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    checkpoint_every=st.sampled_from([None, 1, 2, R]),
    strategy=st.sampled_from(["im", "cb"]),
    problem=st.sampled_from(["fw", "ge"]),
)
def test_checkpointing_is_bit_identical_under_chaos(
    clean, tmp_path_factory, seed, checkpoint_every, strategy, problem
):
    """Any checkpoint cadence, journaled to durable storage, under a
    seeded recoverable fault mix (including torn writes, which the
    store must auto-heal, and post-commit bitrot of the blocks it
    writes) yields the exact bytes of the clean baseline for FW and GE
    via IM and CB."""
    plan = FaultPlan(seed, [
        FaultSpec("kill", 0.05),
        FaultSpec("storage", 0.03),
        FaultSpec("torn_write", 0.3),
        FaultSpec("corrupt_block", 0.1),
    ])
    ckdir = tmp_path_factory.mktemp("durck")
    out, _, metrics = solve(
        TABLES[problem],
        SPECS[problem],
        strategy,
        ckdir=ckdir,
        plan=plan,
        checkpoint_every=checkpoint_every,
    )
    assert out.tobytes() == clean[problem, strategy].tobytes()
    # every torn write was caught by read-back verification
    assert metrics.torn_writes_detected == plan.fired()["torn_write"]


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kill_k=st.sampled_from([0, 1, 2]),
    strategy=st.sampled_from(["im", "cb"]),
)
def test_resume_under_chaos_is_bit_identical(
    clean, tmp_path_factory, seed, kill_k, strategy
):
    """Crash after iteration ``kill_k`` under a hot fault mix, then
    resume under a *different* seeded mix: still the exact bytes."""
    ckdir = tmp_path_factory.mktemp("durck")
    mix = lambda s: FaultPlan(s, [
        FaultSpec("kill", 0.05),
        FaultSpec("torn_write", 0.2),
    ])
    run_until_crash(
        TABLES["fw"], SPECS["fw"], strategy, ckdir, kill_k, plan=mix(seed)
    )
    out, _, metrics = solve(
        TABLES["fw"], SPECS["fw"], strategy,
        ckdir=ckdir, resume=True, plan=mix(seed ^ 0xA5A5),
    )
    assert out.tobytes() == clean["fw", strategy].tobytes()
    assert metrics.resumed_from_iteration == kill_k


# ----------------------------------------------------------------------
# CLI: validation, staged solves, fsck, and a real SIGKILL
# ----------------------------------------------------------------------
CLI_SOLVE = [
    "solve", "apsp", "--n", "16", "--engine", "spark",
    "--r", "4", "--kernel", "iterative",
]


#: every ``solve`` flag only the spark engine reads, with a valid value
SPARK_FLAGS = [
    ["--executors", "2"], ["--cores", "1"], ["--backend", "threads"],
    ["--checkpoint-dir", "ck"], ["--resume"], ["--max-iterations", "1"],
    ["--memory-budget", "4096"], ["--spill-dir", "spill"],
    ["--degrade-on-pressure"], ["--heartbeat-interval", "0.1"],
    ["--task-deadline", "1"], ["--max-task-failures", "2"],
    ["--chaos", "seed=1"],
]


class TestCli:
    def test_flag_validation(self, tmp_path, capsys):
        assert cli_main(["solve", "apsp", "--resume"]) == 2
        assert cli_main(
            ["solve", "apsp", "--engine", "local",
             "--checkpoint-dir", str(tmp_path / "ck")]
        ) == 2
        assert cli_main(["fsck", str(tmp_path / "missing")]) == 2
        capsys.readouterr()

    def test_removed_degrade_on_crash_flag_is_unrecognized(self, capsys):
        # a poison call falls back to threads with no flag at all
        with pytest.raises(SystemExit) as excinfo:
            cli_main([*CLI_SOLVE, "--backend", "processes", "--degrade-on-crash"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --degrade-on-crash" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["local", "reference"])
    @pytest.mark.parametrize("flag", SPARK_FLAGS, ids=lambda flag: flag[0])
    def test_spark_flag_refused_off_spark(self, tmp_path, capsys, monkeypatch, flag, engine):
        """A spark-engine flag is never silently ignored: with another
        engine the solve exits 2 before it runs."""
        monkeypatch.chdir(tmp_path)  # a relative DIR value stays in tmp
        argv = ["solve", "apsp", "--n", "16", "--engine", engine, *flag]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert f"{flag[0]} requires --engine spark" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_staged_solve_resume_and_fsck(self, tmp_path, capsys):
        ckdir = tmp_path / "ck"
        full = tmp_path / "full.npy"
        resumed = tmp_path / "resumed.npy"
        assert cli_main(CLI_SOLVE + ["--output", str(full)]) == 0
        assert cli_main(
            CLI_SOLVE + ["--checkpoint-dir", str(ckdir),
                         "--max-iterations", "2"]
        ) == 0
        assert "partial solve: 2 of 4" in capsys.readouterr().out
        assert cli_main(
            CLI_SOLVE + ["--checkpoint-dir", str(ckdir), "--resume",
                         "--output", str(resumed)]
        ) == 0
        assert "resumed after journaled iteration 1" in capsys.readouterr().out
        assert np.load(full).tobytes() == np.load(resumed).tobytes()
        assert cli_main(["fsck", str(ckdir)]) == 0
        assert "clean" in capsys.readouterr().out
        flip_byte(next((ckdir / "blocks").glob("*.blk")))
        assert cli_main(["fsck", str(ckdir)]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT block" in out and "DAMAGED" in out

    def test_resume_mismatch_exits_2(self, tmp_path, capsys):
        ckdir = tmp_path / "ck"
        assert cli_main(
            CLI_SOLVE + ["--checkpoint-dir", str(ckdir),
                         "--max-iterations", "1"]
        ) == 0
        assert cli_main(
            CLI_SOLVE + ["--checkpoint-dir", str(ckdir), "--resume",
                         "--seed", "9"]
        ) == 2
        assert "cannot resume" in capsys.readouterr().err

    def test_bcast_strategy_exposed(self, capsys):
        assert cli_main(CLI_SOLVE + ["--strategy", "bcast"]) == 0
        assert "APSP solved" in capsys.readouterr().out

    def test_sigkill_then_cli_resume_bit_identical(self, tmp_path):
        """The acceptance scenario, with a real SIGKILL: a checkpointed
        solve killed dead mid-run, resumed by the CLI, matches the
        uninterrupted run byte for byte."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        args = [sys.executable, "-m", "repro"] + CLI_SOLVE
        baseline = tmp_path / "baseline.npy"
        subprocess.run(
            args + ["--output", str(baseline)],
            env=env, cwd=REPO_ROOT, check=True, capture_output=True,
        )
        ckdir = tmp_path / "ck"
        # same table the CLI generates (n=16, density 0.3, seed 0),
        # killed for real after iteration 1 is journaled
        script = textwrap.dedent(f"""
            import os, signal
            from repro.core import floyd_warshall
            from repro.sparkle import SparkleContext
            from repro.workloads import random_digraph_weights

            w = random_digraph_weights(16, 0.3, seed=0)

            def die(k):
                if k == 1:
                    os.kill(os.getpid(), signal.SIGKILL)

            with SparkleContext(checkpoint_dir={str(ckdir)!r}) as sc:
                floyd_warshall(w, engine="spark", r=4, kernel="iterative",
                               r_shared=4, sc=sc, on_iteration=die)
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, cwd=REPO_ROOT, capture_output=True,
        )
        assert proc.returncode == -signal.SIGKILL
        fsck = subprocess.run(
            args[:3] + ["fsck", str(ckdir)],
            env=env, cwd=REPO_ROOT, capture_output=True, text=True,
        )
        assert fsck.returncode == 0, fsck.stdout + fsck.stderr
        assert "in progress through iteration 1" in fsck.stdout
        resumed = tmp_path / "resumed.npy"
        done = subprocess.run(
            args + ["--checkpoint-dir", str(ckdir), "--resume",
                    "--output", str(resumed)],
            env=env, cwd=REPO_ROOT, capture_output=True, text=True,
            check=True,
        )
        assert "resumed after journaled iteration 1" in done.stdout
        assert np.load(baseline).tobytes() == np.load(resumed).tobytes()
