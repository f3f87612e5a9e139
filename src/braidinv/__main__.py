"""Process entry of `python -m braidinv` and the `braidinv` console script."""

import atexit
import gc
import os
import sys


def main() -> int:
    """Freeze the start-up heap, run the CLI on sys.argv, then end the
    process without tearing the interpreter down.

    Everything the interpreter, site and this package's import made so far
    lives until exit, so it moves to the permanent generation and no later
    collection walks it.  Once the request is done, the exit handlers run,
    stdout and stderr are flushed, and os._exit ends the process with the
    CLI's code: module teardown, the final collection and the freeing of
    everything the request built are skipped.  If a flush fails or the code
    is not an int, main returns the code and the interpreter exits as usual.
    Only the process entry may freeze or end the process: cli.main also
    runs in-process, many times in one test run, and a freeze there would
    leave every reference cycle its caller made uncollectable.
    """
    gc.freeze()
    from .cli import main as cli_main
    code = cli_main()
    if not isinstance(code, int):
        return code
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    # a failed write, a closed stream, or none at all (its fd was closed)
    except (OSError, ValueError, AttributeError):
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
