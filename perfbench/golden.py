"""Golden outputs: digests of canonical result texts and CLI `--json` bytes.

The digests cover a fixed sample of each workload's seed-independent cases.
Each sample text is built from corealg's results in a canonical form
(matrix-unit coefficients at a fixed level, depth functions at a fixed depth,
Smith diagonals, report lines), so the comparison does not rely on the
program's own equality checks.

To record new golden values after a deliberate change of output, run
`python3 perfbench/golden.py` from the repository root and commit the files
it rewrites.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
DIGESTS = os.path.join(GOLDEN_DIR, "digests.json")
SAMPLE_PER_KIND = 12


def golden_sample(pool):
    """Up to SAMPLE_PER_KIND seed-independent cases per kind, evenly spaced
    through the pool."""
    kinds: dict[str, list] = {}
    for case in pool:
        if not case.random:
            kinds.setdefault(case.kind, []).append(case)
    out = []
    for kind in sorted(kinds):
        members = kinds[kind]
        step = max(1, len(members) // SAMPLE_PER_KIND)
        out.extend(members[::step][:SAMPLE_PER_KIND])
    return out


def digest(pool) -> tuple[str, int]:
    h = hashlib.sha256()
    sample = golden_sample(pool)
    for case in sample:
        h.update(("%s\n%s\n%s\n" % (case.kind, case.label, case.canon())).encode())
    return h.hexdigest(), len(sample)


def run_cli(api, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = api.cli.main(list(argv))
    return code, buf.getvalue()


def cli_golden_path(workload: str) -> str:
    return os.path.join(GOLDEN_DIR, "cli-%s.json" % workload)


def load_digests() -> dict:
    with open(DIGESTS, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_cli(workload: str) -> str:
    with open(cli_golden_path(workload), "r", encoding="utf-8") as fh:
        return fh.read()


def main() -> None:
    import workloads as wl

    os.chdir(os.path.dirname(HERE))
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    api = wl.import_corealg()
    out = {}
    for workload in wl.WORKLOADS:
        pool = wl.BUILDERS[workload](api, 0)
        value, count = digest(pool)
        out[workload] = {"sha256": value, "cases": count}
        code, text = run_cli(api, wl.CLI_COMMANDS[workload])
        if code != 0:
            raise SystemExit("%s: CLI exited with %d" % (workload, code))
        with open(cli_golden_path(workload), "w", encoding="utf-8") as fh:
            fh.write(text)
        print(workload, value, count)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    main()
