"""Run one mooctrace CLI command in a fresh interpreter, traced or not.

    python3 tracer.py --summary OUT.json [--trace] -- <mooctrace argv>

Times the import of ``mooctrace.cli`` and the call to ``mooctrace.cli.main``.
With ``--trace`` it first wraps every public function of the library
modules, both where the function is defined and wherever another mooctrace
module imported it by name (``mooctrace.events.encode_events`` and
``mooctrace.cli.encode_events``), and records calls, total and self time
per function and per layer. The program's source is not modified.
The summary is written as JSON; the exit code is the command's.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

# Layers are the library modules, named as in ``mooctrace.<layer>``.
LAYERS = ("synth", "events", "footprint", "actgraph", "features", "model")


def _graph_key(graph) -> str:
    """Nodes and distinct non-loop edges: everything betweenness depends on."""
    nodes = ".".join(str(t.value) for t in sorted(graph.nodes))
    edges = ",".join(
        f"{u.value}>{v.value}"
        for u, v in sorted({(u, v) for u, v in graph.edges if u != v})
    )
    return f"{nodes}|{edges}"


def _observe_generate(tracer, args, result):
    clicks, forums = result
    tracer.counts["synth.lines"] += len(clicks) + len(forums)


def _observe_parse(tracer, args, result):
    events, diagnostics = result
    tracer.counts["events.lines"] += len(events) + len(diagnostics)
    tracer.counts["events.rejected"] += len(diagnostics)


def _observe_encode(tracer, args, result):
    tracer.counts["events.encoded"] += len(result[0])


def _observe_metrics(tracer, args, result):
    tracer.graph_keys.append(_graph_key(args[0]))


OBSERVERS = {
    "synth.generate_synthetic": _observe_generate,
    "events.parse_clickstream_log": _observe_parse,
    "events.parse_forum_log": _observe_parse,
    "events.encode_events": _observe_encode,
    "actgraph.compute_metrics": _observe_metrics,
}


class Tracer:
    """Span accounting for wrapped calls, kept in memory until the command ends.

    Every open span has a frame ``[child_s, hidden_s]``: time spent in wrapped
    calls it made, and time the tracer spent in observers while it was open.
    A span's duration excludes ``hidden_s``; its self time also excludes
    ``child_s``. The bottom frame belongs to the command itself.
    """

    def __init__(self):
        self.frames = [[0.0, 0.0]]
        self.functions: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.layers: dict[str, list] = {}     # layer -> [calls, total_s, self_s]
        self.open = Counter()                 # open spans per function and layer
        self.counts = Counter()
        self.graph_keys: list[str] = []

    def wrap(self, layer: str, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, 0.0]
            self.frames.append(frame)
            self.open[name] += 1
            self.open[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start - frame[1]
                self.frames.pop()
                self.open[name] -= 1
                self.open[layer] -= 1
                self._account(name, layer, elapsed, elapsed - frame[0])
                self.frames[-1][0] += elapsed
            if observe is not None:
                start = perf_counter()
                observe(self, args, result)
                spent = perf_counter() - start
                for open_frame in self.frames:
                    open_frame[1] += spent
            return result

        return traced

    def _account(self, name: str, layer: str, elapsed: float, self_s: float) -> None:
        for key, table in ((name, self.functions), (layer, self.layers)):
            row = table.setdefault(key, [0, 0.0, 0.0])
            row[0] += 1
            if not self.open[key]:  # outermost span of this function / layer
                row[1] += elapsed
            row[2] += self_s

    def install(self) -> None:
        """Wrap the library's public functions wherever mooctrace refers to them."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"mooctrace.{layer}")
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self.wrap(layer, f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "mooctrace" and not mod_name.startswith("mooctrace."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    start = perf_counter()
    from mooctrace import cli

    import_s = perf_counter() - start
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    code = cli.main(command)
    command_s = perf_counter() - start

    summary = {"import_s": import_s, "command_s": command_s, "exit_code": code}
    if tracer is not None:
        top = tracer.frames[0]
        summary.update(
            cli_self_s=command_s - top[0] - top[1],
            functions=tracer.functions,
            layers=tracer.layers,
            counts=dict(tracer.counts),
            graph_keys=tracer.graph_keys,
        )
    with open(args.summary, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
