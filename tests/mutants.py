"""A catalogue of mutants: small, deliberate faults in src/ that named tests
must catch.

Each entry names a file under the repo, a text that occurs exactly once in
src/ (tests/test_ci.py checks that), the text that replaces it, and the
pytest node ids that must fail once it is replaced. A node id selects every
parametrized case under it, and each of those cases must fail.

    python tests/mutants.py

copies src/ into a temporary directory once per entry, applies the entry
there and runs its tests against the copy in a subprocess; the repo is never
edited. It exits 1 if any mutant survives or no longer applies.
"""
from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

REPO = pathlib.Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str      # relative to the repo
    old: str
    new: str
    tests: tuple


MUTANTS = (
    # requantize_array without the nudge: rint rounds exact ties to even
    Mutant("src/ucda/qtensor.py",
           "np.ldexp(m + np.sign(m) * 2.0 ** -32,", "np.ldexp(m,",
           ("tests/test_qtensor.py::TestRequantizeArray::test_ties_and_neighbours",
            "tests/test_qtensor.py::TestRequantizeArray::test_ties_of_every_multiplier_class")),
    # the max-pool-first tail loses the min under a negative multiplier
    Mutant("src/ucda/datapath.py",
           "acc = _maxpool_acc(acc, ks.bn_multiplier)", 'acc = pool2x2(acc, "max")',
           ("tests/test_datapath.py::TestMaxPoolFirst::test_matches_oracle_and_cells",)),
    # window_stream primes one padded row late
    Mutant("src/ucda/linebuffer.py",
           "streamed = mode.pad_top * pw", "streamed = (mode.pad_top + 1) * pw",
           ("tests/test_linebuffer.py::test_window_stream_counts_priming",)),
    # a program runs at an unroll it was not compiled for
    Mutant("src/ucda/datapath.py",
           "    if cmd.unroll != (cfg.tn, cfg.tm):\n"
           "        raise ShapeMismatch(\n"
           '            f"command compiled for unroll {cmd.unroll}, config is {(cfg.tn, cfg.tm)}")\n',
           "",
           ("tests/test_controller.py::TestExecute::test_program_runs_only_at_its_unroll",)),
    # the oracle's int32 range proof admits a bias one past its edge
    Mutant("src/ucda/oracle.py",
           "in_range = bias_bound <= ACC_MAX - acc_bound",
           "in_range = bias_bound <= ACC_MAX - acc_bound + 1",
           ("tests/test_oracle.py::TestRangeProof::test_edge_is_tight_and_one_past_overflows",)),
    # the oracle sums each stacked plane one column left of its shift
    Mutant("src/ucda/oracle.py",
           "p[:, v:v + ow, v]", "p[:, v - 1:v - 1 + ow, v]",
           ("tests/test_oracle.py::TestBands::test_banded_equals_loops",
            "tests/test_oracle.py::TestRowRunGather::test_narrow_maps_equal_loops",
            "tests/test_oracle.py::TestGemmDtype::test_float64_layer_in_stacked_bands")),
    # accumulate_bands gathers each slot one column right of its rectangle
    Mutant("src/ucda/pearray.py",
           "r0 * sy + c0 * sx, (sy, sx, sy, sc))", "r0 * sy + (c0 + 1) * sx, (sy, sx, sy, sc))",
           ("tests/test_datapath.py::TestAccumulatorProof::test_minimum_bands_match",
            "tests/test_datapath.py::TestAccumulatorProof::"
            "test_failed_proof_on_strided_channel_tiles_equals_cells")),
    # the Requantizer finds a tiled row by channel count alone
    Mutant("src/ucda/qtensor.py",
           "        tiled = self._rows.get(row)\n"
           "        if tiled is None:\n"
           "            tiled = np.tile(np.broadcast_to(self.scale, row[-1:]), row[:-1])\n"
           "            self._rows[row] = tiled if row in self._rows else None\n",
           "        tiled = self._rows.get(row[-1:])\n"
           "        if tiled is None:\n"
           "            tiled = np.tile(np.broadcast_to(self.scale, row[-1:]), row[:-1])\n"
           "            self._rows[row[-1:]] = tiled if row[-1:] in self._rows else None\n",
           ("tests/test_qtensor.py::test_one_requantizer_over_bands_of_two_row_widths",)),
)


def outcomes(report: str, node: str):
    """The outcome word of each case `pytest -rA` reported under node."""
    for line in report.splitlines():
        word, _, rest = line.partition(" ")
        case = rest.split(" - ")[0]
        if word in ("PASSED", "FAILED", "ERROR", "SKIPPED", "XFAIL", "XPASS") and (
                case == node or case.startswith(node + "[")):
            yield word


def run(mutant: Mutant) -> str | None:
    """None when every case of the mutant's tests fails, else why not."""
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp, "src")
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = pathlib.Path(tmp, mutant.file)
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"old text occurs {text.count(mutant.old)} times"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(src),
                   HYPOTHESIS_STORAGE_DIRECTORY=str(pathlib.Path(tmp, ".hypothesis")))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", "-o", f"pythonpath={src}", *mutant.tests],
            cwd=REPO, env=env, capture_output=True, text=True)
    for node in mutant.tests:
        seen = list(outcomes(proc.stdout, node))
        if not seen:
            return f"{node} did not run:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        if set(seen) != {"FAILED"}:
            return f"{node}: {seen.count('FAILED')} of {len(seen)} cases failed"
    return None


def main() -> int:
    survivors = 0
    for mutant in MUTANTS:
        why = run(mutant)
        first = mutant.old.strip().splitlines()[0]
        print(f"{'killed' if why is None else 'SURVIVED'}  {mutant.file}: {first}")
        if why is not None:
            print(f"    {why}")
            survivors += 1
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
