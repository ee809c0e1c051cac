"""The benchmark's checker counts wrong outputs as failed operations.

    python3 -m pytest -q perfbench/test_checks.py

Each test builds a real workload's operations in a temporary directory and
runs them against a stand-in for `randpipe.cli` that answers as scripted,
so the checks are exercised without the program.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import workloads


class FakeCli:
    """Stands in for randpipe.cli: `answers` maps a subcommand to a function of argv."""

    def __init__(self):
        self.answers = {}

    def main(self, argv):
        return self.answers[argv[0]](argv)


def _printing(text, rc=0):
    def answer(argv):
        print(text, end="")
        return rc
    return answer


def _op(ops, label):
    return next(op for op in ops if op.label == label)


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def test_wrong_crack_answer_is_a_failed_operation():
    cli = FakeCli()
    job = _op(workloads.recover(cli, None, np.random.default_rng(3)).ops, "crack 0")
    window = oracle.parse_samples(Path("window000.txt").read_text()).tolist()
    # Job 0 has the shallowest stratum of offsets.
    stratum = (workloads.RECOVER_MAX_OFFSET + 1) // (workloads.RECOVER_JOBS - len(workloads.EXHAUSTED_JOBS))
    seed, offset = next((s, c) for c in range(stratum + 1) for s in range(1024)
                        if oracle.lcg_outputs(s, c, 1) == window[:1])

    cli.answers["crack"] = _printing(f"seed={seed} offset={offset}\n")
    right = run.run_pass([job], {})
    cli.answers["crack"] = _printing(f"seed={seed} offset={offset + 1}\n")
    wrong = run.run_pass([job], {})

    assert right.errors == []
    assert len(wrong.op_seconds) == 1 and len(wrong.errors) == 1
    assert "does not regenerate the window" in wrong.errors[0]


def _wide_capture():
    values = np.random.default_rng(5).integers(472, 553, size=100000)
    Path("wide.txt").write_text("".join(f"{v}\n" for v in values.tolist()))
    return values


def test_flipped_output_bit_is_a_failed_operation():
    values = _wide_capture()
    bits = oracle.extract(values, "twoleastsign")

    def extract(flip):
        def answer(argv):
            out = bits.copy()
            if flip:
                out[len(out) // 2] ^= 1
            Path(_after(argv, "--out")).write_bytes(oracle.bit_file(out))
            print(oracle.extract_stdout(values.size, out.size, 10000.0), end="")
            return 0
        return answer

    cli = FakeCli()
    op = _op(workloads.readme(cli, None, None).ops, "extract")
    cli.answers["extract"] = extract(flip=False)
    right = run.run_pass([op], {})
    cli.answers["extract"] = extract(flip=True)
    wrong = run.run_pass([op], {})

    assert right.errors == []
    assert len(wrong.errors) == 1 and "bits.txt differs" in wrong.errors[0]


def test_unexpected_exit_code_is_a_failed_operation():
    cli = FakeCli()
    ops = workloads.recover(cli, None, np.random.default_rng(3)).ops
    exhausted = _op(ops, f"crack {workloads.EXHAUSTED_JOBS[0]}")

    cli.answers["crack"] = _printing("", rc=1)
    right = run.run_pass([exhausted], {})
    cli.answers["crack"] = _printing("", rc=0)
    wrong = run.run_pass([exhausted], {})

    assert right.errors == []
    assert len(wrong.errors) == 1 and "exit code 0, expected 1" in wrong.errors[0]


def test_recorded_digest_mismatch_is_a_failed_operation():
    cli = FakeCli()
    op = _op(workloads.readme(cli, None, None).ops, "lcg")
    cli.answers["lcg"] = _printing("".join(f"{x}\n" for x in oracle.lcg_outputs(338, 0, 140)))
    digests = {}
    assert run.run_pass([op], digests).errors == []
    assert run.run_pass([op], {}, recorded=digests).errors == []
    stale = {op.label: "0" * 32}
    assert len(run.run_pass([op], {}, recorded=stale).errors) == 1


def test_audit_digest_ignores_the_order_of_pairs():
    def digest_of(found):
        digests = {}
        op = workloads.Op("audit", lambda: found, lambda out: None, cli=False,
                          key=workloads.audit_key)
        run.run_op(op, digests)
        return digests["audit"]

    found = [[(5, 10), (3, 99)], [(7, 0)]]
    assert digest_of(found) == digest_of([[[3, 99], [5, 10]], [(7, 0)]])
    assert digest_of(found) != digest_of([[(5, 10)], [(7, 0)]])


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _after(argv, flag):
    return argv[argv.index(flag) + 1]
