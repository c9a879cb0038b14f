"""Run ``uptakecast predict`` under the tracer and dump its spans.

Usage: python3 perfbench/traced_predict.py OUT.json VACCINE -- <cli arguments>

The package must be importable (``PYTHONPATH=src``). The command's own output
goes to stdout unchanged; spans and counters go to OUT.json.
"""

import json
import sys
import warnings

from tracing import Tracer, instrument


def main() -> int:
    out, vaccine, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer(vaccine=vaccine)
    sid = tracer.open("cli.import")
    from uptakecast import cli
    from uptakecast.errors import DiagnosticWarning

    tracer.close(sid)
    instrument(tracer)
    tracer.wrap(cli, "main", "cli.main")
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        tracer.record_warnings(log, DiagnosticWarning)
        code = cli.main(argv)
    tracer.uninstall()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
