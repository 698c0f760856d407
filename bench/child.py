"""One fresh-interpreter run of the oirsvlc CLI, timed from outside the program.

Usage: python3 child.py TIMING_JSON TRACE_JSON|- CLI_ARG...

Records the CLOCK_MONOTONIC instants (shared by every process on Linux) at
which `oirsvlc.cli` finished importing and at which its `main` started and
returned, so the parent can split the process's wall time into set-up and
compute. Given a trace path, it first replaces the public functions listed
in TRACED, in every oirsvlc module that looks them up, with wrappers that
record one span (name, start, end, parent, error, value) per call, and
writes the spans out after `main` returns. A listed name missing from the
measured source yields no span, so its time stays in its caller's self time.
"""

import functools
import sys
import time

# Module of oirsvlc -> public functions timed in a traced run. A span's name
# is "<module>.<function>".
TRACED = {
    "experiments": ("run_noise_sweep", "run_fig4", "run_coherence", "run_overhead_report",
                    "write_coherence_csv", "write_fig4_csv", "write_noise_sweep_csv",
                    "write_overhead_csv"),
    "estimator": ("run_algorithm1", "interpolate_full", "design_layout"),
    "channel": ("build_csi_tensor", "aperture_gain", "point_gain"),
    "coherence": ("coherence_distance", "coherence_profile", "taylor_coeffs",
                  "growth_rate_taylor"),
    "geometry": ("element_positions", "alignment_normal"),
}

# Span name -> number recorded from the call's result: the ridge-solve flops
# that the public flops_estimate computed for the pass.
VALUES = {
    "estimator.run_algorithm1": lambda result: getattr(result, "flops_estimate", 0),
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Spans of timed calls, kept in memory; a span's parent is the open span
    that made the call (-1 at top level)."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        value_of = VALUES.get(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = [name, now(), 0.0, self._open[-1] if self._open else -1, 0, 0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = 1
                raise
            finally:
                span[2] = now()
                self._open.pop()
            if value_of is not None:
                span[5] = value_of(result)
            return result

        return timed

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "oirsvlc" or n.startswith("oirsvlc."))]
        for module_name, names in TRACED.items():
            home = sys.modules.get(f"oirsvlc.{module_name}")
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{module_name}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)


def main() -> int:
    timing_path, trace_path, *cli_args = sys.argv[1:]
    import oirsvlc.cli
    import_done = now()
    tracer = None
    if trace_path != "-":
        tracer = Tracer()
        tracer.install()
    main_start = now()
    code = oirsvlc.cli.main(cli_args)
    main_end = now()

    import json    # after the timed import, which the CLI alone does not pay for
    timing = {"import_done": import_done, "main_start": main_start, "main_end": main_end,
              "module": oirsvlc.cli.__file__}
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(timing, fh)
    if tracer is not None:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
