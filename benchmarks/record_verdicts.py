"""Record the verdicts of the workloads that have no independent reference.

    python3 benchmarks/record_verdicts.py "atldk 0.1.0 at git commit <hash>"

The verdicts belong to the base instances, so they hold for every seed's
isomorphic copy. Record them only from a checker version whose answers are
trusted, and say which one in the label.
"""

import json
import sys

import run
from families import RECORDED, WORKLOADS, render


def main(label):
    verdicts = {}
    for workload in WORKLOADS.values():
        if workload.reference != RECORDED:
            continue
        verdicts[workload.name] = [
            run.model_check(run.load_arena(document), render(formula)).holds
            for document, formula in workload.base_instances()]
    lines = ['  "%s": %s' % (name, json.dumps(values)) for name, values in verdicts.items()]
    with open(run.RECORDED_VERDICTS, "w") as handle:
        handle.write('{"recorded_from": %s,\n "verdicts": {\n%s\n }}\n'
                     % (json.dumps(label), ",\n".join(lines)))


if __name__ == "__main__":
    main(sys.argv[1])
