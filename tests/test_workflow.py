"""The offline steps of .github/workflows/tests.yml, run locally.

Each `run:` step of the workflow runs here as a runner's default shell runs
it, under bash -eo pipefail from the repository root, except the steps
named in SKIPPED.  A `braidinv` shim on PATH stands for the installed
console script, PYTHONPATH=src python -m braidinv, and `python` and
`python3` stand for this interpreter; RUNNER_TEMP is a temporary
directory.  The no-mpmath step hides mpmath behind a sitecustomize that
sets sys.modules["mpmath"] = None, in place of its pip uninstall.
"""

import os
import subprocess
import sys

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tests.yml")

# the steps that need a runner or the network, and the two test runs: the
# suite this file belongs to, and the bench smoke test of a few minutes
SKIPPED = [
    "actions/checkout@v4",
    "actions/setup-python@v5",
    "pip install '.[test]'",
    "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q "
    "--continue-on-collection-errors",
    "bench smoke test",
]
NO_MPMATH = "float commands without mpmath match their goldens"
UNINSTALL = "pip uninstall -y mpmath\n"


def label(step):
    """A step's name, else what it uses, else its command."""
    return step.get("name") or step.get("uses") or step["run"].strip()


def shims(folder):
    """braidinv, python and python3 on a PATH folder, and a folder whose
    sitecustomize hides mpmath."""
    bin_dir, hide_dir = folder / "bin", folder / "hide-mpmath"
    bin_dir.mkdir()
    hide_dir.mkdir()
    src = f"{ROOT}/src"
    scripts = {
        "braidinv": f'export PYTHONPATH="{src}${{PYTHONPATH:+:$PYTHONPATH}}"\n'
                    f'exec "{sys.executable}" -m braidinv "$@"\n',
        "python": f'exec "{sys.executable}" "$@"\n',
    }
    scripts["python3"] = scripts["python"]
    for name, body in scripts.items():
        path = bin_dir / name
        path.write_text("#!/bin/sh\n" + body, encoding="utf-8")
        path.chmod(0o755)
    (hide_dir / "sitecustomize.py").write_text(
        'import sys\nsys.modules["mpmath"] = None\n', encoding="utf-8")
    return bin_dir, hide_dir


def test_every_offline_workflow_step_passes(tmp_path):
    with open(WORKFLOW, encoding="utf-8") as handle:
        workflow = yaml.safe_load(handle)
    [job] = workflow["jobs"].values()
    steps = {label(step): step for step in job["steps"]}
    # no step hides behind another's label, and every skip names a step
    assert len(steps) == len(job["steps"]) and set(SKIPPED) <= set(steps)
    bin_dir, hide_dir = shims(tmp_path)
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    hidden = dict(env, PYTHONPATH=os.pathsep.join(
        filter(None, [str(hide_dir), env.get("PYTHONPATH")])))
    probe = subprocess.run(["python", "-c", "import mpmath"], env=hidden,
                           capture_output=True)
    assert probe.returncode == 1 and b"mpmath halted" in probe.stderr
    # the steps share no files, so they run side by side, each with its
    # own RUNNER_TEMP
    running = {}
    for at, (name, step) in enumerate(steps.items()):
        if name in SKIPPED:
            continue
        script, step_env = step["run"], env
        assert "${{" not in script, name
        if name == NO_MPMATH:
            assert UNINSTALL in script
            script, step_env = script.replace(UNINSTALL, ""), hidden
        temp = tmp_path / f"step-{at}"
        temp.mkdir()
        running[name] = subprocess.Popen(
            ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", script],
            cwd=ROOT, env=dict(step_env, RUNNER_TEMP=str(temp)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    # every step is waited for before any failure is reported
    failed = []
    for name, process in running.items():
        out, err = process.communicate(timeout=120)
        if process.returncode:
            failed.append((name, out, err))
    assert not failed
    assert NO_MPMATH in running and \
        len(running) == len(steps) - len(SKIPPED)
