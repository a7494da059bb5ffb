"""Per-layer spans for the traced run, recorded from outside the package.

``Tracer.install`` wraps the public functions and methods of each fibquat
layer in a span that counts the call and measures its self time: the span's
duration minus the time covered by the spans nested inside it.  Modules
import names with ``from .x import y``, so after wrapping, every ``fibquat.*``
module attribute that still points at an original function is rebound to its
wrapper.  Records are aggregated in memory and read once, at the end of the
process, by ``Tracer.metrics``.

The compiled ``Rational`` is an extension type whose methods cannot be
replaced, so with that backend the kernel is left unwrapped and its metrics
are reported as ``None`` (unmeasured), never estimated.
"""

import functools
import importlib
import sys
import time
import types
from collections import defaultdict

# module -> {public name: span key}.  A class name wraps every method the
# class defines, under the key given, except methods named in _METHOD_KEYS.
_TARGETS = {
    "fibquat._kernel._pyrational": {"Rational": "kernel"},
    "fibquat.sequences": dict.fromkeys(
        ("fib", "gen_fib", "narayana", "binom", "figurate", "herd_total"), "sequences"
    ),
    "fibquat.quatseq": dict.fromkeys(("fib_quat", "gen_fib_quat", "narayana_quat"), "quatseq"),
    "fibquat.algebra": dict.fromkeys(
        ("Quaternion", "as_rational", "basis", "combine", "mul", "conj", "trace",
         "norm", "square", "inverse"),
        "algebra",
    ),
    "fibquat.normforms": {
        "invertibility_threshold": "normforms.threshold",
        "verify_threshold_report": "normforms.verify",
        "norm_fib_formula": "normforms.formula",
        "norm_genfib_formula": "normforms.formula",
        "swamy_norm_as_stated": "normforms.formula",
        "swamy_norm_corrected": "normforms.formula",
        "growth_indicator_E": "normforms.indicator",
        "growth_indicator_Eprime": "normforms.indicator",
    },
    "fibquat.surd": {"QuadraticSurd": "surd"},
    "fibquat.analytic": dict.fromkeys(
        ("cubic_roots", "binet_fib", "binet_narayana", "binet_narayana_quat", "gf_check"),
        "analytic",
    ),
    "fibquat.audit": dict.fromkeys(
        ("audit", "audit_all", "adjudicate", "aggregate_ok", "expected_failure_ids",
         "list_identities", "get_check"),
        "audit",
    ),
    "fibquat.cli": dict.fromkeys(("run", "main"), "cli"),
}

# Quaternion methods counted on their own; the module-level mul/norm/inverse
# helpers delegate to these, so counting here counts each product once.
_METHOD_KEYS = {
    ("Quaternion", "norm"): "algebra.norm",
    ("Quaternion", "__mul__"): "algebra.mul",
    ("Quaternion", "inverse"): "algebra.inverse",
}

_MEMO_FUNCTIONS = ("fib", "gen_fib", "narayana")


class Tracer:
    """Span records of one process: calls and self seconds per span key."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.max_bits = 0
        self.max_index = 0
        self.instances = 0
        self.kernel_measured = False
        self._stack = []

    def _wrap(self, fn, key, observe=None):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                calls[key] += 1
                self_s[key] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        return span

    def _observe_kernel(self, rational):
        def observe(args, result):
            value = result if type(result) is rational else args[0]
            if type(value) is rational:
                bits = max(value.numerator.bit_length(), value.denominator.bit_length())
                if bits > self.max_bits:
                    self.max_bits = bits
        return observe

    def _observe_index(self, args, result):
        index = abs(args[-1])
        if index > self.max_index:
            self.max_index = index

    def _observe_audit(self, args, result):
        self.instances += result.instances_run

    def _wrap_class(self, cls, key, observe):
        for name, attr in list(vars(cls).items()):
            span_key = _METHOD_KEYS.get((cls.__name__, name), key)
            if isinstance(attr, types.FunctionType):
                setattr(cls, name, self._wrap(attr, span_key, observe))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(attr.__func__, span_key, observe)))

    def install(self):
        """Wrap every target and rebind each fibquat.* name that points at one."""
        import fibquat

        self.kernel_measured = fibquat.KERNEL_BACKEND == "pure-python"
        wrappers = {}
        for module_name, names in _TARGETS.items():
            if module_name == "fibquat._kernel._pyrational" and not self.kernel_measured:
                continue
            module = importlib.import_module(module_name)
            for name, key in names.items():
                original = getattr(module, name)
                if isinstance(original, type):
                    observe = self._observe_kernel(original) if key == "kernel" else None
                    self._wrap_class(original, key, observe)
                    continue
                observe = None
                if name in _MEMO_FUNCTIONS:
                    observe = self._observe_index
                elif module_name == "fibquat.audit" and name == "audit":
                    observe = self._observe_audit
                wrappers[original] = self._wrap(original, key, observe)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "fibquat" or module_name.startswith("fibquat.")):
                continue
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, name, wrappers[value])

    def metrics(self):
        """Per-layer metrics by name; kernel metrics are None when unmeasured."""

        def group(prefix):
            return [k for k in self.self_s if k == prefix or k.startswith(prefix + ".")]

        def calls(prefix):
            return sum(self.calls[k] for k in group(prefix))

        def self_s(prefix):
            return sum(self.self_s[k] for k in group(prefix))

        kernel = self.kernel_measured
        return {
            "kernel.calls": calls("kernel") if kernel else None,
            "kernel.self_s": self_s("kernel") if kernel else None,
            "kernel.max_bits": self.max_bits if kernel else None,
            "sequences.calls": calls("sequences"),
            "sequences.self_s": self_s("sequences"),
            "sequences.max_index": self.max_index,
            "quatseq.calls": calls("quatseq"),
            "quatseq.self_s": self_s("quatseq"),
            "algebra.norm.calls": self.calls["algebra.norm"],
            "algebra.mul.calls": self.calls["algebra.mul"],
            "algebra.inverse.calls": self.calls["algebra.inverse"],
            "algebra.self_s": self_s("algebra"),
            "normforms.threshold.calls": self.calls["normforms.threshold"],
            "normforms.threshold.self_s": self.self_s["normforms.threshold"],
            "normforms.verify.self_s": self.self_s["normforms.verify"],
            "normforms.formula.calls": self.calls["normforms.formula"],
            "normforms.formula.self_s": self.self_s["normforms.formula"],
            "normforms.indicator.self_s": self.self_s["normforms.indicator"],
            "surd.calls": calls("surd"),
            "surd.self_s": self_s("surd"),
            "analytic.calls": calls("analytic"),
            "analytic.self_s": self_s("analytic"),
            "audit.calls": calls("audit"),
            "audit.instances": self.instances,
            "audit.self_s": self_s("audit"),
            "cli.calls": calls("cli"),
            "cli.self_s": self_s("cli"),
        }
