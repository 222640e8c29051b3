"""Digests of whole CLI runs at benchmark scale, and the script that
rewrites them.

Each run is one in-process ``cli.run`` on the inputs that
``bench/workloads.make_inputs`` builds: every benchmark workload on seeds 1
and 2, under each ``trace_scope``, with ``--evaluate`` where the workload
asks for it, plus one ``--scenario`` run per seed on the
``scenario-50x150`` spec. A run's digest is the sha256 of its exit code,
its stdout and stderr, and the relative path and bytes of every file it
wrote. The directory the runs work in is replaced by ``<work>`` in stdout
and stderr, so the digests do not depend on where they were made.

``tests/golden/bundle_digests.json`` holds the digests;
``tests/test_bundle_digests.py`` requires a fresh computation to equal it.
A change that means to alter some output reruns this script and names each
digest that changed, and why::

    python3 tests/bundle_digests.py           # rewrite the golden file
    python3 tests/bundle_digests.py --check   # name the digests that differ
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "bundle_digests.json"
SEEDS = (1, 2)
SCOPES = ("global", "per_service", "both")
SCENARIO_WORKLOAD = "scenario-50x150"


def load_workloads():
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def run_digest(cli, argv: list[str], out_dir: Path, work: Path) -> str:
    """Run ``cli.run(argv)`` and digest what it did, ``out_dir`` being where it writes."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.run(argv)
    digest = hashlib.sha256()

    def part(data: bytes) -> None:
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)

    part(str(code).encode())
    for text in (out.getvalue(), err.getvalue()):
        part(text.replace(str(work), "<work>").encode("utf-8", "surrogatepass"))
    files = {path.relative_to(out_dir).as_posix(): path
             for path in out_dir.rglob("*") if path.is_file()} if out_dir.is_dir() else {}
    for name in sorted(files):
        part(name.encode())
        part(files[name].read_bytes())
    return digest.hexdigest()


def compute(names: tuple[str, ...] | None = None,
            seeds: tuple[int, ...] = SEEDS) -> dict[str, str]:
    """Every run's digest, keyed ``<workload>/seed<n>/<scope>`` or
    ``scenario/seed<n>``; only those of the workloads ``names`` on ``seeds``
    if given."""
    from msaconform import cli

    workloads = load_workloads()
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, spec in workloads.WORKLOADS.items():
            if names is not None and name not in names:
                continue
            for seed in seeds:
                case = work / f"{name}-{seed}"
                inputs = workloads.make_inputs(cli.run, spec, seed, case / "in")
                if name == SCENARIO_WORKLOAD:
                    out_dir = case / "scenario"
                    digests[f"scenario/seed{seed}"] = run_digest(
                        cli, ["--scenario", str(case / "in" / "scenario_spec.json"),
                              "--output_path", str(out_dir)], out_dir, work)
                for scope in SCOPES:
                    config = case / f"{scope}.conf"
                    config.write_text(f"trace_scope = {scope}\n", "utf-8")
                    out_dir = case / f"out-{scope}"
                    argv = ["--static_model_path", str(inputs.static_model),
                            "--dynamic_models_path", str(inputs.dynamic_dir),
                            "--output_path", str(out_dir), "--config", str(config)]
                    if spec.evaluate:
                        argv.append("--evaluate")
                    digests[f"{name}/seed{seed}/{scope}"] = run_digest(cli, argv, out_dir, work)
    return digests


def differing(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """The names of the digests that differ, or that only one side has."""
    return sorted(key for key in got.keys() | want.keys() if got.get(key) != want.get(key))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the golden file and name the digests that differ")
    args = parser.parse_args(argv)
    got = compute()
    if args.check:
        names = differing(got, json.loads(GOLDEN.read_text("utf-8")))
        for name in names:
            print(f"differs: {name}")
        print(f"{len(got) - len(names)} of {len(got)} digests match")
        return 1 if names else 0
    GOLDEN.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {len(got)} digests to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
