"""Record the stdout digests that the readme-session workload checks against.

Usage (from the repository root): python3 bench/record_digests.py

Runs every README command in every output format once and writes the
SHA-256 of each stdout to bench/readme_digests.json.  Record them only from
a commit whose README outputs are known to be right: the benchmark treats
any later difference as a failed request.
"""

import hashlib
import json
import os
import subprocess
import sys

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    env = {k: v for k, v in os.environ.items() if k != "BRAIDINV_FLOAT_DIGITS"}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    digests = {}
    for key, args in workloads.readme_requests():
        result = subprocess.run([sys.executable, "-m", "braidinv", *args],
                                capture_output=True, env=env, cwd=ROOT,
                                check=True)
        digests[key] = hashlib.sha256(result.stdout).hexdigest()
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
