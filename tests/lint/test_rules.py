"""The repo's determinism, telemetry, mutation and checkpoint contracts,
checked statically over one parse of every ``.py`` under ``src``,
``scripts`` and ``examples`` (DESIGN.md "Enforced invariants").

Each rule is one predicate over parsed modules.  The per-file ones
(``check(module)``) yield offending AST nodes; the cross-module ones,
RPL007 and RPL010, take every module at once and yield ``(module,
node)``.  Where a rule needs a constant's *value* (RPL004's metric
names, RPL007's tuples, RPL010's ``GLOBAL_SEQUENCES``) it imports the
``src`` module and reads it; a file outside ``src`` is read with
``ast.literal_eval``.  The modules that implement a contract are
exempt from it by path (``EXEMPT``), and the few deliberate wall-clock
reads outside ``repro/telemetry`` are named, with a reason, in
``ALLOWED``.

Every ``*_bad`` fixture line marked ``# EXPECT: RPLnnn`` must be
flagged by exactly that rule at exactly that line (a code listed twice
flags twice); every ``*_good`` twin must be clean.
"""

import ast
from collections import Counter
import importlib
from pathlib import Path
import re

import pytest

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"
_EXPECT = re.compile(
    r"#\s*EXPECT:\s*([A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)")
MISSING = object()


# ----------------------------------------------------------------------
# One parsed module: path, dotted name, AST and import aliases
# ----------------------------------------------------------------------

class Module:
    def __init__(self, path, source=None, display=None):
        path = Path(path)
        self.path = display or path.as_posix()
        self.tree = ast.parse(path.read_text(encoding="utf-8")
                              if source is None else source)
        parts = [path.stem] if path.name != "__init__.py" else []
        parent = path.parent
        while (parent / "__init__.py").is_file():
            parts.append(parent.name)
            parent = parent.parent
        self.name = ".".join(reversed(parts))
        self.importable = source is None and parent.name == "src"
        #: local name -> the dotted name it is bound to ("rnd" ->
        #: "random", "datetime" -> "datetime.datetime").
        self.aliases = {}
        #: local name -> (module, name) for absolute from-imports.
        self.imported = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    head = item.name.split(".")[0]
                    self.aliases[item.asname or head] = \
                        item.name if item.asname else head
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for item in node.names:
                    local = item.asname or item.name
                    self.aliases[local] = f"{node.module}.{item.name}"
                    self.imported[local] = (node.module, item.name)

    def qualname(self, node):
        """``rnd.random`` -> ``"random.random"``; None unless the chain
        starts at an imported name."""
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name) or node.id not in self.aliases:
            return None
        return ".".join([self.aliases[node.id], *reversed(parts)])

    def calls(self):
        return [n for n in ast.walk(self.tree) if isinstance(n, ast.Call)]

    def assignments(self):
        """Top-level ``NAME = value`` bindings, last one wins."""
        out = {}
        for node in self.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                out[node.targets[0].id] = node.value
            elif isinstance(node, ast.AnnAssign) and node.value \
                    and isinstance(node.target, ast.Name):
                out[node.target.id] = node.value
        return out

    def lookup(self, name, siblings):
        """The value of top-level ``name``: read from the imported
        module for ``src``, else literal-evaluated through same-module
        constants and from-imports; MISSING when not a literal."""
        if self.importable:
            return getattr(importlib.import_module(self.name), name,
                           MISSING)
        assigned = self.assignments().get(name)
        if assigned is not None:
            return self.evaluate(assigned, siblings)
        origin, symbol = self.imported.get(name, (None, None))
        if origin in siblings:
            return siblings[origin].lookup(symbol, siblings)
        if origin is not None and origin.split(".")[0] == "repro":
            return getattr(importlib.import_module(origin), symbol,
                           MISSING)
        return MISSING

    def evaluate(self, node, siblings):
        """``node`` as a literal, with its names looked up first."""
        def substitute(expr):
            if isinstance(expr, ast.Name):
                value = self.lookup(expr.id, siblings)
                if value is not MISSING:
                    return ast.Constant(value)
            for field, child in ast.iter_fields(expr):
                if isinstance(child, list):
                    setattr(expr, field, [
                        substitute(c) if isinstance(c, ast.expr) else c
                        for c in child])
                elif isinstance(child, ast.expr):
                    setattr(expr, field, substitute(child))
            return expr
        try:
            return ast.literal_eval(substitute(
                ast.parse(ast.unparse(node), mode="eval").body))
        except (ValueError, TypeError, SyntaxError):
            return MISSING


def parse_all(paths):
    return [Module(path) for root in paths
            for path in ([root] if root.suffix == ".py"
                         else sorted(root.rglob("*.py")))]


def siblings_of(modules):
    return {module.name: module for module in modules}


# ----------------------------------------------------------------------
# The rules, one predicate each
# ----------------------------------------------------------------------

def rpl001(module):
    """unseeded randomness: all randomness flows from a seeded
    random.Random stream"""
    for call in module.calls():
        qual = module.qualname(call.func) or ""
        owner, _, symbol = qual.rpartition(".")
        first = call.args[0] if call.args else None
        smuggled = isinstance(first, ast.Constant) \
            and first.value == "random" and (
                qual == "importlib.import_module"
                or (isinstance(call.func, ast.Name)
                    and call.func.id == "__import__"))
        if smuggled or owner == "random" and not (
                symbol == "Random" and (call.args or call.keywords)):
            yield call


_WALL_CLOCK = {
    "time": {"time", "time_ns", "perf_counter", "perf_counter_ns",
             "monotonic", "monotonic_ns", "process_time",
             "process_time_ns", "clock_gettime", "clock_gettime_ns"},
    "datetime.datetime": {"now", "utcnow", "today"},
    "datetime.date": {"today"},
}


def rpl002(module):
    """wall-clock read outside repro/telemetry: sweep results must be a
    pure function of (spec, seeds); use sim.now or phase_timer"""
    for call in module.calls():
        owner, _, symbol = (module.qualname(call.func) or "").rpartition(".")
        if symbol in _WALL_CLOCK.get(owner, ()):
            yield call


_GUARDED_FIELDS = {"capacity_bps", "delay_s", "queue_bytes", "up", "version"}
_MUTATORS = {"pop", "popitem", "clear", "update", "setdefault"}


def _guarded_map(node):
    return isinstance(node, ast.Attribute) and node.attr in ("links", "nodes")


def _guarded_targets(target):
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _guarded_targets(element)
    elif isinstance(target, ast.Attribute) and target.attr in _GUARDED_FIELDS \
            or isinstance(target, ast.Subscript) and _guarded_map(target.value):
        yield target


def rpl003(module):
    """direct Topology/Link state write: go through the mutators that
    bump Topology.version, or cached routes/allocations go stale"""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                yield from _guarded_targets(target)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            yield from _guarded_targets(node.target)
        elif isinstance(node, ast.Delete):
            yield from (t for t in node.targets
                        if isinstance(t, ast.Subscript)
                        and _guarded_map(t.value))
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATORS \
                and _guarded_map(node.func.value):
            yield node


def _kwarg(call, name):
    return next((kw.value for kw in call.keywords if kw.arg == name), None)


def rpl004(module):
    """unmergeable metric registration: names resolve to strings,
    counters end _total, histograms declare buckets=, labelnames are
    literal string tuples"""
    for call in module.calls():
        kind = getattr(call.func, "attr", None)
        if kind not in ("counter", "gauge", "histogram"):
            continue
        name_node = call.args[0] if call.args else _kwarg(call, "name")
        if name_node is not None:
            name = module.evaluate(name_node, {})
            if not isinstance(name, str) or kind == "counter" \
                    and not name.endswith("_total"):
                yield call
        labels = _kwarg(call, "labelnames")
        if labels is None and len(call.args) >= 3:
            labels = call.args[2]
        if labels is not None and not (
                isinstance(labels, (ast.Tuple, ast.List))
                and all(isinstance(e, ast.Constant)
                        and isinstance(e.value, str) for e in labels.elts)):
            yield call
        if kind == "histogram" and _kwarg(call, "buckets") is None \
                and len(call.args) < 4:
            yield call


def rpl005(module):
    """assert as a guard: python -O strips it; raise a real exception"""
    return (n for n in ast.walk(module.tree) if isinstance(n, ast.Assert))


_ORDER_FREE = {"sum", "len", "min", "max", "any", "all", "set",
               "frozenset", "sorted"}


def _unordered(node):
    """True when ``node`` evaluates to a set or a keys view."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) in ("set", "frozenset") \
            or getattr(node.func, "attr", None) == "keys"
    return isinstance(node, ast.BinOp) \
        and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)) \
        and (_unordered(node.left) or _unordered(node.right))


def rpl006(module):
    """unordered iteration: set/keys order is hash-randomized across
    processes; wrap the iterable in sorted(...)"""
    blessed = {id(arg) for n in ast.walk(module.tree)
               if isinstance(n, ast.Call)
               and getattr(n.func, "id", None) in _ORDER_FREE
               for arg in n.args}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.For):
            if id(node.iter) not in blessed and _unordered(node.iter):
                yield node.iter
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            if id(node) not in blessed:
                yield from (g.iter for g in node.generators
                            if _unordered(g.iter))
        elif isinstance(node, ast.Call) and node.args \
                and _unordered(node.args[0]) and (
                    getattr(node.func, "id", None) in ("list", "tuple",
                                                       "enumerate")
                    or getattr(node.func, "attr", None) == "join"):
            yield node


def _canonical(value):
    """Hashable, order-free form of a literal value; MISSING otherwise."""
    if isinstance(value, (list, tuple)):
        items = tuple(_canonical(v) for v in value)
    elif isinstance(value, (set, frozenset)):
        items = frozenset(_canonical(v) for v in value)
    elif isinstance(value, dict):
        items = tuple(sorted((repr(k), _canonical(v))
                             for k, v in value.items()))
    else:
        return value if isinstance(
            value, (str, bytes, int, float, type(None))) else MISSING
    return MISSING if MISSING in items else items


def rpl007(modules):
    """duplicated constant: the same ALL_CAPS value defined in two
    modules drifts; define it once and import it"""
    siblings = siblings_of(modules)
    sites = {}
    for module in modules:
        for name, node in module.assignments().items():
            if not re.fullmatch(r"[A-Z][A-Z0-9_]{2,}", name) \
                    or not isinstance(node, (ast.Tuple, ast.List,
                                             ast.Set, ast.Dict)):
                continue
            value = _canonical(module.lookup(name, siblings))
            if isinstance(value, (tuple, frozenset)) and len(value) >= 2:
                sites.setdefault((name, value), []).append((module, node))
    for found in sites.values():
        if len({module.path for module, _node in found}) >= 2:
            yield from found


def rpl009(module):
    """order-dependent float fold in shard/ or sweep/: sum() and +=
    in a loop depend on arrival order; use math.fsum"""
    if not any(part in f"/{module.path}" for part in ("/shard/", "/sweep/")):
        return
    floats = {t.id for n in ast.walk(module.tree)
              if isinstance(n, ast.Assign) and isinstance(n.value, ast.Constant)
              and isinstance(n.value.value, float)
              for t in n.targets if isinstance(t, ast.Name)}

    def counts(arg):
        """True when ``sum`` is fed a provably integral comprehension."""
        if not isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
            return False
        elt = arg.elt.body if isinstance(arg.elt, ast.IfExp) else arg.elt
        return getattr(getattr(elt, "func", None), "id", None) == "len" \
            or isinstance(elt, ast.Constant) and type(elt.value) is int

    def visit(node, in_loop):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) \
                == "sum" and node.args and not counts(node.args[0]):
            yield node
        elif isinstance(node, ast.AugAssign) and in_loop \
                and isinstance(node.op, ast.Add) \
                and getattr(node.target, "id", None) in floats:
            yield node
        in_loop = in_loop or isinstance(node, (ast.For, ast.While,
                                               ast.AsyncFor))
        for child in ast.iter_child_nodes(node):
            yield from visit(child, in_loop)
    yield from visit(module.tree, False)


def _unpicklable(node):
    return isinstance(node, (ast.Lambda, ast.GeneratorExp)) \
        or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"


def _bindings(tree):
    """Module-level, class-level and ``self.<attr>`` assignments: what
    a pickle of a live world reaches."""
    classes = [n for n in tree.body if isinstance(n, ast.ClassDef)]
    for body in [tree.body] + [cls.body for cls in classes]:
        yield from (n for n in body
                    if isinstance(n, (ast.Assign, ast.AnnAssign)))
    for cls in classes:
        yield from (n for n in ast.walk(cls) if isinstance(n, ast.Assign)
                    and len(n.targets) == 1
                    and isinstance(n.targets[0], ast.Attribute)
                    and getattr(n.targets[0].value, "id", None) == "self")


def _scheduled_closures(node, nested=frozenset()):
    """Lambdas and nested ``def``s handed to schedule/schedule_at/every:
    the event heap holds them, and a checkpoint pickles the heap."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = {n.name for n in ast.walk(child) if n is not child
                     and isinstance(n, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))}
            yield from _scheduled_closures(child, nested | inner)
            continue
        if isinstance(child, ast.Call) and getattr(
                child.func, "attr", None) in ("schedule", "schedule_at",
                                              "every"):
            yield from (arg for arg in child.args
                        + [kw.value for kw in child.keywords]
                        if isinstance(arg, ast.Lambda)
                        or isinstance(arg, ast.Name) and arg.id in nested)
        yield from _scheduled_closures(child, nested)


def rpl010(modules):
    """checkpoint-unsafe state: no lambda/open()/generator bindings or
    scheduled closures, and every module-level itertools.count is in
    GLOBAL_SEQUENCES"""
    siblings = siblings_of(modules)
    registry = next((m.lookup("GLOBAL_SEQUENCES", siblings)
                     for m in modules
                     if "GLOBAL_SEQUENCES" in m.assignments()), None)
    if registry is MISSING:
        registry = ()
    for module in modules:
        for node in _bindings(module.tree):
            if node.value is not None and _unpicklable(node.value):
                yield module, node
        yield from ((module, arg)
                    for arg in _scheduled_closures(module.tree))
        if registry is None:
            continue
        for name, value in module.assignments().items():
            if isinstance(value, ast.Call) \
                    and module.qualname(value.func) == "itertools.count" \
                    and (module.name, name) not in registry:
                yield module, value


RULES = {"RPL001": rpl001, "RPL002": rpl002, "RPL003": rpl003,
         "RPL004": rpl004, "RPL005": rpl005, "RPL006": rpl006,
         "RPL007": rpl007, "RPL009": rpl009, "RPL010": rpl010}
PROJECT_CODES = ("RPL007", "RPL010")
PER_FILE_CODES = tuple(c for c in RULES if c not in PROJECT_CODES)

#: The modules that implement a contract, by path fragment.
EXEMPT = {
    "RPL002": ("repro/telemetry/",),
    "RPL003": ("repro/netsim/topology.py", "repro/netsim/links.py",
               "repro/netsim/node.py"),
    "RPL004": ("repro/telemetry/registry.py",),
    "RPL010": ("repro/telemetry/", "repro/checkpoint/"),
}

#: Deliberate wall-clock reads outside repro/telemetry, by (module,
#: function).  None of them feeds a simulated value or a digest.
ALLOWED = {
    ("RPL002", "repro.sweep.runner", "run_task"):
        "per-task wall_seconds is profiling output; aggregate_records "
        "drops it",
    ("RPL002", "repro.sweep.runner", "run_sweep"):
        "the sweep's total wall_seconds is reported, never aggregated",
    ("RPL002", "repro.shard.coordinator", "_run_region"):
        "a region task's cpu_time_s feeds only the transport accounting",
    ("RPL002", "repro.shard.coordinator", "run_sharded"):
        "barrier wait and coordinator cpu time are transport accounting, "
        "outside every byte-identity comparison",
}


def enclosing_function(module, line):
    """The innermost ``def`` containing ``line``, or None."""
    names = [n.name for n in ast.walk(module.tree)
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
             and n.lineno <= line <= n.end_lineno]
    return names[-1] if names else None


def findings(code, modules):
    """Sorted ``(module, line)`` pairs where rule ``code`` fires, minus
    its exempt paths."""
    check = RULES[code]
    hits = check(modules) if code in PROJECT_CODES else (
        (module, node) for module in modules for node in check(module))
    return sorted(
        ((module, node.lineno) for module, node in hits
         if not any(p in module.path for p in EXEMPT.get(code, ()))),
        key=lambda hit: (hit[0].path, hit[1]))


def lines(code, modules):
    return Counter((module.path, line)
                   for module, line in findings(code, modules))


def snippet(source, path="snippet.py"):
    return [Module(path, source=source)]


# ----------------------------------------------------------------------
# Every marked fixture line flags; every good twin is clean
# ----------------------------------------------------------------------

def expected_lines(path, code):
    """(path, line) -> how many findings of ``code`` it is marked with."""
    want = Counter()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _EXPECT.search(line)
        for marked in match.group(1).split(",") if match else ():
            if marked.strip() == code:
                want[(path.as_posix(), lineno)] += 1
    return want


def fixture(code, kind):
    """A flat fixture as one module (RPL009's is scoped by path, so it
    is read as if it lived under ``shard/``)."""
    path = FIXTURES / f"{code.lower()}_{kind}.py"
    display = f"shard/{path.name}" if code == "RPL009" else None
    return path, [Module(path, display=display)]


def test_all_nine_rules_are_registered():
    assert list(RULES) == ["RPL001", "RPL002", "RPL003", "RPL004",
                           "RPL005", "RPL006", "RPL007", "RPL009", "RPL010"]
    assert all(check.__doc__ for check in RULES.values())


@pytest.mark.parametrize("code", PER_FILE_CODES)
def test_every_per_file_rule_has_fixture_pair(code):
    assert (FIXTURES / f"{code.lower()}_bad.py").is_file()
    assert (FIXTURES / f"{code.lower()}_good.py").is_file()


@pytest.mark.parametrize("code", PROJECT_CODES)
def test_every_project_rule_has_fixture_packages(code):
    assert (FIXTURES / f"{code.lower()}_bad").is_dir()
    assert (FIXTURES / f"{code.lower()}_good").is_dir()


@pytest.mark.parametrize("code", PER_FILE_CODES)
def test_bad_fixture_flags_each_marked_line(code):
    path, modules = fixture(code, "bad")
    want = Counter({(modules[0].path, line): n for (_p, line), n
                    in expected_lines(path, code).items()})
    assert want, f"{path.name} declares no EXPECT markers"
    assert lines(code, modules) == want


@pytest.mark.parametrize("code", PER_FILE_CODES)
def test_good_fixture_is_clean(code):
    _path, modules = fixture(code, "good")
    assert findings(code, modules) == []


@pytest.mark.parametrize("code", PROJECT_CODES)
def test_bad_package_flags_each_marked_line(code):
    package = FIXTURES / f"{code.lower()}_bad"
    want = sum((expected_lines(p, code)
                for p in sorted(package.rglob("*.py"))), Counter())
    assert want, f"{package.name} declares no EXPECT markers"
    assert lines(code, parse_all([package])) == want


@pytest.mark.parametrize("code", PROJECT_CODES)
def test_good_package_is_clean(code):
    modules = parse_all([FIXTURES / f"{code.lower()}_good"])
    assert [(rule, m.path, line) for rule in RULES
            for m, line in findings(rule, modules)] == []


def test_wall_clock_triplication_regression():
    """Three hand copies of WALL_CLOCK_METRICS, one built through a
    name imported from a sibling module: every definition flags."""
    hits = findings("RPL007", parse_all([FIXTURES / "rpl007_bad"]))
    assert {Path(m.path).name for m, _line in hits} == {
        "runner.py", "check_restore_gate.py", "check_sweep_gate.py"}
    assert all("WALL_CLOCK_METRICS" in
               Path(m.path).read_text().splitlines()[line - 1]
               for m, line in hits)


# ----------------------------------------------------------------------
# Pins on what each predicate reaches
# ----------------------------------------------------------------------

def test_dunder_import_random_is_flagged():
    assert lines("RPL001", snippet('rng = __import__("random")\n')) == \
        Counter({("snippet.py", 1): 1})


def test_unseeded_random_instance_is_flagged():
    modules = snippet("import random\nstream = random.Random()\n")
    assert lines("RPL001", modules) == Counter({("snippet.py", 2): 1})


def test_seeded_random_instance_is_clean():
    modules = snippet("import random\nstream = random.Random(7)\n")
    assert findings("RPL001", modules) == []


def test_import_alias_is_resolved():
    modules = snippet("import random as rnd\nx = rnd.random()\n")
    assert lines("RPL001", modules) == Counter({("snippet.py", 2): 1})


def test_from_import_is_resolved():
    modules = snippet("from random import random\nx = random()\n"
                      "from datetime import datetime\nt = datetime.now()\n")
    assert lines("RPL001", modules) == Counter({("snippet.py", 2): 1})
    assert lines("RPL002", modules) == Counter({("snippet.py", 4): 1})


def test_rpl002_exempts_telemetry_package():
    source = "import time\nstamp = time.time()\n"
    inside = snippet(source, "src/repro/telemetry/timers.py")
    outside = snippet(source, "src/repro/core/engine.py")
    assert findings("RPL002", inside) == []
    assert [line for _m, line in findings("RPL002", outside)] == [2]


def test_rpl003_exempts_contract_implementers():
    source = "def f(link):\n    link.capacity_bps = 1\n"
    inside = snippet(source, "src/repro/netsim/links.py")
    outside = snippet(source, "src/repro/boosters/x.py")
    assert findings("RPL003", inside) == []
    assert [line for _m, line in findings("RPL003", outside)] == [2]


def test_rpl009_is_scoped_by_path_alone():
    """A docstring naming fsum does not opt a module in; only a
    ``shard/`` or ``sweep/`` path does."""
    source = '"""Folds with math.fsum."""\ntotal = sum(samples)\n'
    inside = snippet(source, "src/repro/sweep/x.py")
    outside = snippet(source, "src/repro/core/x.py")
    assert [line for _m, line in findings("RPL009", inside)] == [2]
    assert findings("RPL009", outside) == []


# ----------------------------------------------------------------------
# The repo itself: one parse, every rule
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def repo():
    return parse_all([REPO / "src", REPO / "scripts", REPO / "examples"])


def test_repo_scan_covers_src_scripts_examples(repo):
    assert len(repo) > 50
    roots = {Path(m.path).relative_to(REPO).parts[0] for m in repo}
    assert roots == {"src", "scripts", "examples"}


@pytest.mark.parametrize("code", RULES)
def test_repo_is_clean(code, repo):
    bad = [f"{Path(m.path).relative_to(REPO)}:{line}"
           for m, line in findings(code, repo)
           if (code, m.name, enclosing_function(m, line)) not in ALLOWED]
    assert bad == [], f"{code} {RULES[code].__doc__}:\n" + "\n".join(bad)


def test_every_allowed_read_is_still_there(repo):
    used = {("RPL002", m.name, enclosing_function(m, line))
            for m, line in findings("RPL002", repo)}
    assert set(ALLOWED) <= used
