"""The surface ratchet: nothing in ``src/repro`` exists only for its tests.

The rule (DESIGN §6d, "Surface"): outside :data:`PAPER_SURFACE`,

- every public ``def``/``class`` — methods and properties included — is
  named somewhere in ``src/``, ``examples/`` or ``benchmarks/``, outside
  its own definition;
- every defaulted parameter of a function is passed by some call site in
  those trees whose callee has the function's name (by keyword, by
  position, or through ``*``/``**``);
- an exception is a row of :data:`KEPT`, with its reason.

"Named" means an AST name or attribute, an import, or a string literal
that is an identifier or a ``"module:attr"`` path (``getattr``/``hasattr``
and ``E13_WORKLOAD``).  A package ``__init__``'s re-exports — its
imports, its ``__all__`` and its ``lazy_exports`` table — are not uses.
Matching is by name, so the scan errs toward "used"; what it cannot follow
(a callable stored in a registry and called under another name) is a
:data:`KEPT` row.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
USERS = ("src", "examples", "benchmarks")

#: The paper's customization API and features (EXPERIMENTS §A10): kept
#: whole, whether or not a root drives them.
PAPER_SURFACE = (
    "repro/core/xml_codec.py",
    "repro/core/filters.py",
    "repro/core/aggregator.py",
    "repro/core/classifier.py",
    "repro/core/subscription.py",
    "repro/core/addresses.py",
    "repro/clients/",
    "repro/aladdin/",
    "repro/wish/",
    "repro/workloads/",
    "repro/sources/",
)
#: ...except the machinery every source shares.
NOT_PAPER_SURFACE = ("repro/sources/base.py",)

_EXPERIMENT = (
    "an experiment's configuration, stated in its signature: the CLI "
    "registry calls it as ``run(seed=..., **flags)``, which a by-name scan "
    "cannot follow, and tests size runs down"
)

#: ``module:qualname`` of a definition, ``module:qualname(param)`` of a
#: defaulted parameter, or ``module:qualname(*)`` for every defaulted
#: parameter of one callable, that stays although no non-test code uses
#: it — with the reason.
KEPT: dict[str, str] = {
    # Definitions.
    "repro.core.farm:BuddyFarm.delivery_summary":
        "README's 'Scaling to many users' example calls it",
    "repro.metrics.collector:LatencyCollector":
        "benchmarks/e2e freezes the src file list until ROADMAP item 4",
    "repro.metrics.recovery_report:recovery_report":
        "benchmarks/e2e freezes the src file list until ROADMAP item 4",
    "repro.metrics.recovery_report:recovery_report(*)":
        "benchmarks/e2e freezes the src file list until ROADMAP item 4",
    "repro.net.im:IMService.session_for":
        "invariant probe: the transit tier reads a user's live session",
    "repro.net.sms:SMSGateway.set_reachable":
        "models §3.3's unreachable phone",
    "repro.sim.kernel:Environment.dead_entries":
        "invariant probe: the hop, heap and event budgets read it",
    "repro.sim.kernel:Environment.all_of":
        "the kernel equivalence tier races AllOf against the frozen "
        "reference kernel; ROADMAP item 4 retires both",
    "repro.sim.pool:EventPool.recycled":
        "invariant probe of the pool; ROADMAP item 4 decides the pool",
    "repro.sim.rng:_SeedWords.generate_state":
        "numpy's ISeedSequence interface: PCG64 calls it while seeding a "
        "primed stream, no repro code does",
    "repro.testkit.bugs:AbandonAmnesiaRetryStage":
        "a planted bug: the teeth tests' stages",
    "repro.testkit.bugs:silent_drop_stages":
        "a planted bug: the teeth tests' stages",
    "repro.testkit.bugs:drop_retry_stages":
        "a planted bug: the teeth tests' stages",
    # Options of the experiment entry points.
    "repro.__main__:_run_e13(*)":
        "e13's --shards/--users flags, passed as ``**flags``",
    "repro.__main__:main(argv)": "tests run the CLI in-process",
    "repro.experiments.ablations:run_ack_timeout_sweep(*)": _EXPERIMENT,
    "repro.experiments.ablations:run_log_latency_sweep(*)": _EXPERIMENT,
    "repro.experiments.ablations:run_daemon_saturation_sweep(*)": _EXPERIMENT,
    "repro.experiments.ablations:run_farm_throughput_sweep(*)": _EXPERIMENT,
    "repro.experiments.adversarial:adversarial_schedule(*)": _EXPERIMENT,
    "repro.experiments.adversarial:run_adversarial_comparison(*)": _EXPERIMENT,
    "repro.experiments.aladdin_e2e:run_aladdin_disarm(*)": _EXPERIMENT,
    "repro.experiments.chaos:run_chaos_experiment(*)": _EXPERIMENT,
    "repro.experiments.delivery_comparison:run_comparison(*)": _EXPERIMENT,
    "repro.experiments.failover:crash_schedule(*)": _EXPERIMENT,
    "repro.experiments.failover:run_failover_comparison(*)": _EXPERIMENT,
    "repro.experiments.fault_tolerance:run_fault_month(*)": _EXPERIMENT,
    "repro.experiments.fault_tolerance:run_ha_ablation(*)": _EXPERIMENT,
    "repro.experiments.fault_tolerance:run_logging_window(*)": _EXPERIMENT,
    "repro.experiments.latency:run_ack_roundtrip(*)": _EXPERIMENT,
    "repro.experiments.latency:run_proxy_routing(*)": _EXPERIMENT,
    "repro.experiments.portal_scale:run_portal_log(*)": _EXPERIMENT,
    "repro.experiments.sharded:build_e13_workload(*)":
        "E13's workload knobs: the shard spec passes ``workload_kwargs`` "
        "as ``**``, a by-name scan cannot follow it",
    "repro.experiments.sharded:run_sharded_throughput(*)": _EXPERIMENT,
    "repro.experiments.sharded:run_sharded_comparison(*)": _EXPERIMENT,
    "repro.experiments.storm:run_storm_comparison(*)": _EXPERIMENT,
    "repro.experiments.wish_e2e:run_wish_location(*)": _EXPERIMENT,
    "repro.experiments.wish_e2e:run_wish_accuracy_sweep(*)": _EXPERIMENT,
    # Options the test tiers set.
    "repro.baselines.redundant:BlanketRedundantDelivery.__init__(*)":
        "E8's blanket-redundancy copy counts; tests vary them",
    "repro.core.buddy:MyAlertBuddy.crash(detail)":
        "the crash reason the journal records; fault tiers name theirs",
    "repro.core.delivery_modes:im_ack_then_email(*)":
        "§3.2's delivery mode over a user's own address names",
    "repro.core.farm:BuddyFarm.add_users(prefix)":
        "tests name a later batch apart from the first",
    "repro.core.host:Host.__init__(boot_delay)":
        "the host-power tier shortens a reboot",
    "repro.core.managers:EmailManager.submit(importance)":
        "§4.1.1's automation API: the email client takes an importance",
    "repro.core.monkey:MonkeyThread.__init__(interval)":
        "§4.2.1's 20 s scan; the monkey tier pins and validates it",
    "repro.core.shard:_ProcessShard.stop(timeout)":
        "the worker-death tier shortens it to watch a wedged worker die",
    "repro.core.shard:ShardedFarm.__init__(bridge_latency)":
        "the bridge tier sets a latency below the epoch",
    "repro.obs.trace:TraceSink.to_json(rename)":
        "the golden-trace pin (tests/repin.py) renames process-global ids",
    "repro.testkit.schedule:replay_reproducer(*)":
        "the chaos-regression tier replays pins under planted stages",
    "repro.testkit.sweep:chaos_sweep(*)":
        "the chaos tiers sweep with their own configs and stages",
    "repro.world:BuddyDeployment.register_user_endpoint(modes)":
        "§3.2's personal delivery modes; tests register their own",
    "repro.world:SimbaWorld.create_buddy(log_path)":
        "the file-backed log survives a reboot; the durability tier uses it",
}

_MODULE_ATTR = re.compile(r"^[A-Za-z_][\w.]*:[A-Za-z_][\w.]*$")


@dataclass(frozen=True)
class Definition:
    key: str  # module:qualname
    name: str
    path: Path
    span: tuple[int, int]
    node: ast.AST
    method: bool


@dataclass(frozen=True)
class Call:
    callee: str
    positional: int  # -1: a *starred argument covers every position
    keywords: frozenset[str]
    spread: bool  # a **mapping covers every keyword


def _files(root: Path):
    for tree in USERS:
        yield from sorted((root / tree).rglob("*.py"))


def _in_paper_surface(relative: str) -> bool:
    if relative in NOT_PAPER_SURFACE:
        return False
    return any(relative.startswith(prefix) for prefix in PAPER_SURFACE)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def definitions(root: Path = ROOT, package: str = "repro"):
    """Every public definition of the package outside the paper surface,
    and every function (public or not) whose defaulted parameters the
    option rule audits."""
    public: list[Definition] = []
    functions: list[Definition] = []
    base = root / "src"
    for path in sorted((base / package).rglob("*.py")):
        relative = path.relative_to(base).as_posix()
        if _in_paper_surface(relative):
            continue
        module = relative[:-3].replace("/", ".").removesuffix(".__init__")

        def visit(body, prefix, in_class):
            for node in body:
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                qualname = f"{prefix}{node.name}"
                start = min(
                    [node.lineno] + [d.lineno for d in node.decorator_list]
                )
                found = Definition(
                    f"{module}:{qualname}", node.name, path,
                    (start, node.end_lineno), node, in_class,
                )
                if not node.name.startswith("_"):
                    public.append(found)
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{qualname}.", True)
                else:
                    functions.append(found)

        visit(_parse(path).body, "", False)
    return public, functions


def _literal_names(value: str):
    if value.isidentifier():
        yield value
    elif _MODULE_ATTR.match(value):
        yield from re.split(r"[.:]", value)


def _name_of(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def uses(root: Path = ROOT):
    """``name -> [(path, line)]`` of every reference, and every call."""
    names: dict[str, list[tuple[Path, int]]] = {}
    calls: list[Call] = []
    for path in _files(root):
        tree = _parse(path)
        reexports = path.name == "__init__.py"

        def note(name, line):
            names.setdefault(name, []).append((path, line))

        def walk(node, klass):
            if isinstance(node, ast.ClassDef):
                klass = node.name
            if isinstance(node, ast.Name):
                note(node.id, node.lineno)
            elif isinstance(node, ast.Attribute):
                note(node.attr, node.lineno)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if not reexports:
                    for alias in node.names:
                        for part in alias.name.split("."):
                            note(part, node.lineno)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                for name in _literal_names(node.value):
                    note(name, node.lineno)
            elif isinstance(node, ast.Assign) and reexports and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            ):
                return
            elif (
                reexports
                and isinstance(node, ast.Call)
                and _name_of(node.func) == "lazy_exports"
            ):
                # The export table names what the package re-exports.
                note("lazy_exports", node.lineno)
                return
            if isinstance(node, ast.Call):
                func, args = node.func, node.args
                if _name_of(func) in ("partial", "partialmethod") and args:
                    # partial(f, *args, **kwargs) passes them to f.
                    func, args = args[0], args[1:]
                callee = _name_of(func)
                if callee == "cls" and klass:
                    callee = klass
                if callee is not None:
                    starred = any(isinstance(a, ast.Starred) for a in args)
                    calls.append(Call(
                        callee,
                        -1 if starred else len(args),
                        frozenset(k.arg for k in node.keywords if k.arg),
                        any(k.arg is None for k in node.keywords),
                    ))
            for child in ast.iter_child_nodes(node):
                walk(child, klass)

        walk(tree, None)
    return names, calls


def unused_definitions(root: Path = ROOT, package: str = "repro") -> list[str]:
    """Public definitions no non-test code names outside their own body."""
    public, _ = definitions(root, package)
    names, _ = uses(root)
    unused = []
    for found in public:
        first, last = found.span
        if not any(
            path != found.path or not first <= line <= last
            for path, line in names.get(found.name, ())
        ):
            unused.append(found.key)
    return unused


def _defaulted(found: Definition) -> list[tuple[str, int | None]]:
    """``(param, position)`` of each defaulted parameter; keyword-only
    parameters have no position."""
    args = found.node.args
    positional = args.posonlyargs + args.args
    decorators = {
        d.id for d in found.node.decorator_list if isinstance(d, ast.Name)
    }
    skip = 1 if found.method and "staticmethod" not in decorators else 0
    first_default = len(positional) - len(args.defaults)
    out = [
        (arg.arg, index - skip)
        for index, arg in enumerate(positional)
        if index >= first_default
    ]
    out += [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return out


def _callee_names(found: Definition) -> set[str]:
    if found.name != "__init__":
        return {found.name}
    owner = found.key.split(":")[1].split(".")[-2]
    return {owner, "__init__"}


def unset_options(root: Path = ROOT, package: str = "repro") -> list[str]:
    """Defaulted parameters that no non-test call site passes."""
    _, functions = definitions(root, package)
    _, calls = uses(root)
    by_callee: dict[str, list[Call]] = {}
    for call in calls:
        by_callee.setdefault(call.callee, []).append(call)
    unset = []
    for found in functions:
        if found.name.startswith("__") and found.name != "__init__":
            continue
        sites = [c for name in _callee_names(found) for c in by_callee.get(name, ())]
        for param, position in _defaulted(found):
            if not any(
                call.spread
                or param in call.keywords
                or call.positional < 0
                or (position is not None and position < call.positional)
                for call in sites
            ):
                unset.append(f"{found.key}({param})")
    return unset


# ---------------------------------------------------------------------------
# The ratchet
# ---------------------------------------------------------------------------


def _kept_row(finding: str) -> str | None:
    """The KEPT row excusing ``finding``, if any."""
    if finding in KEPT:
        return finding
    if finding.endswith(")"):
        every = finding[: finding.index("(")] + "(*)"
        if every in KEPT:
            return every
    return None


def test_every_public_definition_has_a_non_test_user():
    unused = [key for key in unused_definitions() if _kept_row(key) is None]
    assert unused == [], (
        "named by tests only — delete it, or give it a KEPT row with its "
        f"reason: {unused}"
    )


def test_every_option_is_set_by_some_non_test_caller():
    unset = [key for key in unset_options() if _kept_row(key) is None]
    assert unset == [], (
        "no non-test call site passes these — make each its default (or a "
        f"module constant), or give it a KEPT row with its reason: {unset}"
    )


def test_every_kept_row_is_still_an_exception():
    used = {_kept_row(key) for key in unused_definitions() + unset_options()}
    stale = sorted(set(KEPT) - used)
    assert stale == [], f"KEPT rows the scan no longer flags: {stale}"


def test_paper_surface_names_real_modules():
    package = ROOT / "src"
    for prefix in PAPER_SURFACE + NOT_PAPER_SURFACE:
        assert (package / prefix).exists(), prefix


# ---------------------------------------------------------------------------
# Teeth: a planted unreferenced function and a planted unset option
# ---------------------------------------------------------------------------


PLANTED = '''\
def used(value, option=1):
    return value + option


def planted():
    return planted
'''


#: The two ways a package ``__init__`` re-exports ``mod``'s names.
EAGER_INIT = "from pkg.mod import planted, used\n__all__ = ['planted', 'used']\n"
LAZY_INIT = """\
from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".mod": ("planted", "used"),
})
"""


def _tree(root: Path, caller: str, init: str = EAGER_INIT) -> None:
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "__init__.py").write_text(init)
    (root / "src" / "pkg" / "mod.py").write_text(PLANTED)
    (root / "examples").mkdir()
    (root / "examples" / "caller.py").write_text(caller)
    (root / "benchmarks").mkdir()


def test_teeth_planted_findings_are_flagged(tmp_path):
    _tree(tmp_path, "from pkg.mod import used\nused(2)\n")
    assert unused_definitions(tmp_path, "pkg") == ["pkg.mod:planted"]
    assert unset_options(tmp_path, "pkg") == ["pkg.mod:used(option)"]


def test_teeth_a_lazy_export_table_is_not_a_use(tmp_path):
    _tree(tmp_path, "from pkg.mod import used\nused(2)\n", LAZY_INIT)
    assert unused_definitions(tmp_path, "pkg") == ["pkg.mod:planted"]


def test_teeth_a_caller_clears_them(tmp_path):
    _tree(tmp_path, "from pkg import mod\nmod.used(2, 3)\nmod.planted()\n")
    assert unused_definitions(tmp_path, "pkg") == []
    assert unset_options(tmp_path, "pkg") == []
