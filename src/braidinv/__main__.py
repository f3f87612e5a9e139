"""Process entry of `python -m braidinv` and the `braidinv` console script."""

import atexit
import os
import sys


def main() -> int:
    """Run the CLI on sys.argv, then end the process without tearing the
    interpreter down.

    Once the request is done, the exit handlers run, stdout and stderr are
    flushed, and os._exit ends the process with the CLI's code: module
    teardown, the final collection and the freeing of everything the
    request built are skipped.  If a flush fails, main returns the code and
    the interpreter exits as usual.  An interrupt writes one `error:` line
    and ends the process by SIGINT under its default action, so a shell
    sees status 130.  Only the process entry may end the process: cli.main
    also runs in-process, many times in one test run.
    """
    from .cli import main as cli_main
    try:
        code = cli_main()
    except KeyboardInterrupt:
        import signal
        print("error: interrupted", file=sys.stderr, flush=True)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.raise_signal(signal.SIGINT)
        return 130  # only if SIGINT is blocked
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
