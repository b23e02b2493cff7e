"""Where the time went in a traced run: self time per span name as a share
of each enclosing span.

    python3 bench/shares.py .bench_out/spans-desk-volume-seed1.jsonl
    python3 bench/shares.py SPANS --within generative.train_ae --top 4

By default each root span (one `cli.cmd_*` call) is a group; `--within`
groups by the nearest enclosing span of that name instead. Spans are the
[name, start_ns, end_ns, parent, command] lines the traced run writes."""

import argparse
import json
from collections import Counter

from tracer import span_self_ns


def groups(spans, within=None):
    """[(anchor span, Counter of self ns per name)] in anchor order."""
    own = span_self_ns(spans)
    anchor_of, result = {}, {}
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name == within or (within is None and parent < 0):
            anchor_of[i] = i
        elif parent >= 0 and parent in anchor_of:
            anchor_of[i] = anchor_of[parent]
        else:
            continue
        result.setdefault(anchor_of[i], Counter())[name] += own[i]
    return [(spans[a], counts) for a, counts in sorted(result.items())]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("spans")
    parser.add_argument("--within", default=None)
    parser.add_argument("--top", type=int, default=6)
    args = parser.parse_args(argv)
    with open(args.spans) as fh:
        spans = [json.loads(line) for line in fh]
    for (name, start, end, _, command), counts in groups(spans, args.within):
        base = end - start
        print(f"{name} (command {command}): {base / 1e9:.3f} s")
        for span_name, ns in counts.most_common(args.top):
            print(f"  {ns / base:6.1%}  {ns / 1e9:8.3f} s  {span_name}")


if __name__ == "__main__":
    main()
