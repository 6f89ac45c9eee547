"""Run the tripmatch CLI as its console script does, noting when the handler starts.

Usage: python3 perfbench/launch.py SRC_DIR MARK_FILE -- CLI_ARGS...

SRC_DIR is put first on sys.path so the checkout's own sources run. After
the CLI returns, MARK_FILE receives the time.monotonic() reading taken on
entry to the subcommand handler; the clock is system-wide, so the parent
subtracts its own spawn reading to get the set-up time.
"""

import sys
import time


def main() -> int:
    src, mark_file, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py SRC_DIR MARK_FILE -- CLI_ARGS...")
    sys.path.insert(0, src)
    from tripmatch import cli

    entered = []

    def timed(handler):
        def enter(cfg, outdir):
            entered.append(time.monotonic())
            return handler(cfg, outdir)
        return enter

    for name, handler in list(cli.HANDLERS.items()):
        cli.HANDLERS[name] = timed(handler)
    code = cli.main(cli_args)
    if entered:
        with open(mark_file, "w") as fh:
            fh.write(repr(entered[0]))
    return code


if __name__ == "__main__":
    sys.exit(main())
