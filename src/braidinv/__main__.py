"""Process entry of `python -m braidinv` and the `braidinv` console script."""

import gc
import sys


def main() -> int:
    """Freeze the start-up heap, then run the CLI on sys.argv.

    Everything the interpreter, site and this package's import made so far
    lives until exit, so it moves to the permanent generation and no later
    collection walks it, the ones at interpreter exit included.  Only the
    process entry may freeze: cli.main also runs in-process, many times in
    one test run, and a freeze there would leave every reference cycle its
    caller made uncollectable.
    """
    gc.freeze()
    from .cli import main as cli_main
    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
