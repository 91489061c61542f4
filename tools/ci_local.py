"""Run the CI workflow's steps from a checkout, in order, on this interpreter.

Usage: python tools/ci_local.py

Reads .github/workflows/tests.yml and runs every step that has a `run:`
script, except Install: the package is imported from src through
PYTHONPATH, and a `radixmul` shim on PATH stands in for the installed
console script. Each script runs from the checkout's root as the
workflow's runner runs it: under `bash --noprofile --norc -eo pipefail`
when the step says `shell: bash`, and under `bash -e` otherwise. One
line per step gives its status and wall time, and a failed step's
output follows its line. Exits 1 if any step failed and 2 if PyYAML is
missing. The workflow's Python-version matrix is not covered: every
step runs on the `python` found on PATH.
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
NOT_RUN = {"Install"}
SHELLS = {
    None: ["bash", "-e"],
    "bash": ["bash", "--noprofile", "--norc", "-eo", "pipefail"],
}


def run_steps(workflow: dict) -> list[dict]:
    """The steps with a run: script, every job in order, Install left out."""
    return [step for job in workflow["jobs"].values() for step in job["steps"]
            if "run" in step and step.get("name") not in NOT_RUN]


def main() -> int:
    try:
        import yaml
    except ImportError:
        print("ci_local: PyYAML is not installed, and it is needed to read "
              f"{WORKFLOW.relative_to(ROOT)}", file=sys.stderr)
        return 2
    steps = run_steps(yaml.safe_load(WORKFLOW.read_text(encoding="utf-8")))
    failed = 0
    with tempfile.TemporaryDirectory(prefix="ci_local-") as tmp:
        bin_dir = Path(tmp, "bin")
        bin_dir.mkdir()
        shim = bin_dir / "radixmul"
        shim.write_text('#!/bin/sh\nexec python -m radixmul "$@"\n', encoding="utf-8")
        shim.chmod(0o755)
        runner_temp = Path(tmp, "runner")
        runner_temp.mkdir()
        env = {
            **os.environ,
            "PYTHONPATH": str(ROOT / "src"),
            "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
            "RUNNER_TEMP": str(runner_temp),
        }
        for i, step in enumerate(steps):
            script = Path(tmp, f"step{i}.sh")
            script.write_text(step["run"], encoding="utf-8")
            start = time.monotonic()
            proc = subprocess.run([*SHELLS[step.get("shell")], str(script)], cwd=ROOT,
                                  env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            elapsed = time.monotonic() - start
            ok = proc.returncode == 0
            print(f"{'pass' if ok else 'FAIL'} {elapsed:7.1f} s  {step.get('name', step['run'])}",
                  flush=True)
            if not ok:
                failed += 1
                print(proc.stdout.rstrip(), flush=True)
    print(f"{len(steps)} steps, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
