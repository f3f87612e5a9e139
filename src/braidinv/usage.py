"""The help and the usage errors of the command line, written from cli's flag
table.  Only --help and a usage error load this module."""

import sys

from .cli import COMMANDS, flags, write_stdout


def usage(command):
    if command is None:
        return "usage: braidinv [-h] COMMAND [options]"
    return " ".join(["usage: braidinv", command, "[-h]", *(
        f"{name} {name[2:].upper()}" for name, spec in flags(command).items()
        if spec["required"]), "[options]"])


def fail(command, message):
    """The usage and one error line on stderr, then exit 1."""
    prog = "braidinv" if command is None else f"braidinv {command}"
    sys.stderr.write(f"{usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(1)


def show_help(command, value):
    """Help on stdout, then exit 0; `--help=x` is a usage error."""
    if value is not None:
        fail(command, f"argument --help: ignored explicit argument {value!r}")
    rows = [("-h, --help", "show this help message and exit")]
    if command is None:
        about = ("exact computations for the inverse problem of the two-strand "
                 "braid integral\n\ncommands:\n" + "\n".join(
                     _row(name, line) for name, (line, _) in COMMANDS.items()))
    else:
        about = COMMANDS[command][0]
        for name, spec in flags(command).items():
            metavar = ("{" + ",".join(spec["choices"]) + "}"
                       if spec["choices"] else name[2:].upper())
            rows.append((name if spec["kind"] is bool else f"{name} {metavar}",
                         spec["help"]))
    write_stdout(f"{usage(command)}\n\n{about}\n\noptions:\n" +
                 "\n".join(_row(*row) for row in rows) + "\n")
    raise SystemExit(0)


def _row(left, line):
    """One help row, its text from column 25 on."""
    return f"  {left:<20}  {line}".replace("\n", "\n" + " " * 24).rstrip()
