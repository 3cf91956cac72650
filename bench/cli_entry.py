"""Run a console-script entry point the way its installed script does.

    python bench/cli_entry.py <module:function> <plain|gc|trace> <stats file> ARGS...

``plain`` only calls the entry.  ``gc`` and ``trace`` also write a JSON
snapshot (collector pauses, or spans per layer) to the stats file when
the entry returns or exits, so the wrappers are in place before the
command line is parsed.
"""

import importlib
import sys


def main():
    entry, mode, stats_path = sys.argv[1:4]
    module_name, func_name = entry.split(":")
    func = getattr(importlib.import_module(module_name), func_name)
    sys.argv = ["hnn-nearring", *sys.argv[4:]]
    if mode == "plain":
        sys.exit(func())

    import json

    import tracing

    probe = tracing.Tracer() if mode == "trace" else tracing.GcTimer()
    probe.install()
    try:
        sys.exit(func())
    finally:
        probe.uninstall()
        with open(stats_path, "w") as fh:
            json.dump(probe.snapshot(), fh)


if __name__ == "__main__":
    main()
