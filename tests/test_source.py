"""Static checks on the package source."""
import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nuqsim"

# (module file, bound name) imports kept although the module never reads them
ALLOWED_UNUSED = {("optim.py", "scipy")}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports and never read."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_unused_top_level_imports():
    """Every top-level import of a module is used, except in ``__init__.py``,
    which re-exports, and the imports listed in ALLOWED_UNUSED."""
    found = [(path.name, name) for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"
             for name in unused_imports(path.read_text())]
    assert [f for f in found if f not in ALLOWED_UNUSED] == []
    # each allowed entry is still found, so the scan does see real imports
    assert set(found) >= ALLOWED_UNUSED


def gate_op_calls(source: str) -> int:
    """Number of calls ``GateOp(...)`` in a module."""
    return sum(isinstance(n, ast.Call) and "GateOp" in (
        getattr(n.func, "id", None), getattr(n.func, "attr", None))
        for n in ast.walk(ast.parse(source)))


def test_gate_ops_are_built_only_in_circuits():
    """Only ``circuits.py`` builds a GateOp: its gate factories, which
    check it, and ``Circuit.ops``, whose views read a checked circuit."""
    calls = {path.name: gate_op_calls(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert calls["circuits.py"] > 0
    assert {name: n for name, n in calls.items()
            if n and name != "circuits.py"} == {}


GATE_FACTORIES = {"x", "ry", "rz", "u", "cnot", "measure", "sx"}


def gate_factory_uses(source: str) -> set[str]:
    """Gate factories a module imports from ``circuits`` or ``compiler``,
    or calls as a module attribute (``circuits.ry(...)``)."""
    tree = ast.parse(source)
    used = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
            and n.level == 1 and n.module in ("circuits", "compiler")
            for a in n.names}
    used |= {n.func.attr for n in ast.walk(tree) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Attribute)}
    return used & GATE_FACTORIES


def test_templates_are_built_only_in_layout_form():
    """The scan's modules call no gate factory: their circuits are a gate
    list and an angle matrix, ``Circuit(width, layout=..., angles=...)``.
    Only the compiler's single-circuit lowering builds ops."""
    uses = {path.name: gate_factory_uses(path.read_text())
            for path in sorted(SRC.glob("*.py"))}
    for name in ("builders.py", "optim.py", "scan.py", "simulator.py"):
        assert uses[name] == set(), name
    assert uses["compiler.py"] == {"rz", "u"}


def scopes(source: str):
    """``(name, node)`` of each top-level statement and of each statement
    of a top-level class, a method named ``Class.method``."""
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef):
            yield from ((f"{top.name}.{getattr(fn, 'name', '')}", fn)
                        for fn in top.body)
        else:
            yield getattr(top, "name", ""), top


def callers(source: str, names: set[str]) -> dict[str, set[str]]:
    """For each of ``names``, the top-level functions and the methods,
    as ``Class.method``, that call it."""
    found: dict[str, set[str]] = {}
    for scope, fn in scopes(source):
        for n in ast.walk(fn):
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) in names:
                found.setdefault(n.func.id, set()).add(scope)
    return found


def test_a_scan_config_is_typed_on_one_path():
    """``ScanConfig.__post_init__`` alone types a config's fields, however
    the config was built: ``_coerce_field`` runs from it and from nothing
    else, ``from_dict`` calls no coercion helper, and no function
    converts energies with ``map(float, ...)``."""
    helpers = {"_coerce_field", "_json_int", "_json_float", "_parse_energies"}
    source = (SRC / "scan.py").read_text()
    found = callers(source, helpers)
    assert found["_coerce_field"] == {"ScanConfig.__post_init__"}
    assert not any("ScanConfig.from_dict" in scopes
                   for scopes in found.values()), found
    assert {path.name for path in sorted(SRC.glob("*.py"))
            if path.name != "scan.py"
            and callers(path.read_text(), helpers)} == set()
    assert [n for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "map"
            and getattr(n.args[0], "id", None) == "float"] == []


def test_the_energy_grid_is_checked_on_one_path():
    """Every message of ``scan.py`` that names ``field 'energies'`` is a
    string literal of ``_parse_energies``: no other function sizes,
    converts or checks a grid."""
    tree = ast.parse((SRC / "scan.py").read_text())
    parser, = [n for n in tree.body if isinstance(n, ast.FunctionDef)
               and n.name == "_parse_energies"]

    def naming(node):
        return {id(n) for n in ast.walk(node) if isinstance(n, ast.Constant)
                and "field 'energies'" in str(n.value)}
    assert naming(parser) and naming(tree) == naming(parser)


def call_counts(source: str, function: str) -> dict[str, int]:
    """How many calls of each plain name the top-level ``function`` makes."""
    fn, = [n for n in ast.parse(source).body
           if getattr(n, "name", None) == function]
    counts: dict[str, int] = {}
    for n in ast.walk(fn):
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name):
            counts[n.func.id] = counts.get(n.func.id, 0) + 1
    return counts


def test_unitaries_are_formed_and_applied_on_one_path():
    """Gate entries come from ``simulator._entries``, which only ``run``
    calls, so the pulse-form shortcut and the gate conventions live in one
    place; ``gate_matrix`` is the ``circuit_unitary`` of its op, and a
    scan forms its msw template's unitary with ``circuit_unitary``,
    applies both msw modes' stack with one ``apply_matrix`` call and runs
    its slab or earth template with one ``run`` call."""
    simulator = (SRC / "simulator.py").read_text()
    assert callers(simulator, {"_entries"}) == {"_entries": {"run"}}
    assert "_matrix2" not in simulator
    assert {path.name for path in sorted(SRC.glob("*.py"))
            if path.name != "simulator.py"
            and callers(path.read_text(), {"_entries"})} == set()
    assert call_counts(simulator, "gate_matrix")["circuit_unitary"] == 1
    counts = call_counts((SRC / "scan.py").read_text(), "run_scan")
    assert [counts.get(name) for name in (
        "circuit_unitary", "apply_matrix", "run")] == [1, 1, 1]


def test_scan_rows_have_one_writer():
    """Every CSV and table row comes from ``ScanResult.blocks``, the one
    function that fills a %-template (``_fixed2``, the only other ``%``,
    formats a column's numbers one by one); ``_fill`` and
    ``ScanResult.rows`` are gone; ``_channel_svg`` builds each marker as
    one f-string of named coordinates, with neither a %-template nor a
    column list; and the one loop of ``cli.cmd_scan`` prints the blocks
    of ``blocks`` as they come, with no formatting of its own and so no
    call per row."""
    source = (SRC / "scan.py").read_text()
    functions = dict(scopes(source))
    assert {name for name, fn in functions.items() for n in ast.walk(fn)
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod)} == {
        "ScanResult.blocks", "_fixed2"}
    svg = functions["_channel_svg"]
    assert not [n for n in ast.walk(svg) if isinstance(n, ast.List) or (
        isinstance(n, ast.Constant) and "%s" in str(n.value))]
    assert "(x, low, high, left, right, top, bottom)" in [
        ast.unparse(n.target) for n in ast.walk(svg)
        if isinstance(n, ast.comprehension)]
    defined = defined_functions(source)
    assert "ScanResult.blocks" in defined and {
        "_fill", "ScanResult.rows"} & defined == set()
    cmd_scan, = [n for n in ast.parse((SRC / "cli.py").read_text()).body
                 if getattr(n, "name", None) == "cmd_scan"]
    loops = [n for n in ast.walk(cmd_scan) if isinstance(
        n, (ast.For, ast.While, ast.comprehension))]
    assert len(loops) == 1 and loops[0].iter.func.attr == "blocks"
    body = [n for stmt in loops[0].body for n in ast.walk(stmt)]
    assert not [n for n in body if isinstance(n, (ast.JoinedStr, ast.BinOp))
                or getattr(n, "attr", None) == "format"]


def test_the_virtual_z_pass_walks_a_circuit_once():
    """``virtual_z_pass`` reads a circuit's gate list in one loop, which
    folds the RZs and merges the RYs as it goes; its other loops read
    only the stacked phi rows, never a gate list, so the merge never
    becomes a second pass over the compiled gates."""
    fn, = [n for n in ast.parse((SRC / "compiler.py").read_text()).body
           if getattr(n, "name", None) == "virtual_z_pass"]
    loops = [n for n in ast.walk(fn)
             if isinstance(n, (ast.For, ast.While, ast.comprehension))]
    walk, *others = loops
    assert ast.unparse(walk.iter) == "enumerate(circuit.layout)"
    counted = {n.target.id for n in ast.walk(walk)
               if isinstance(n, ast.AugAssign)}
    assert {"folded", "merged"} <= counted
    assert others and all(
        not isinstance(loop, ast.While) and "phis" in ast.unparse(loop.iter)
        and not {"layout", "ops", "gates"} & {
            getattr(n, "id", getattr(n, "attr", None))
            for n in ast.walk(loop.iter)}
        for loop in others)


def test_run_holds_the_one_pair_update_kernel():
    """``run`` is the one executor: it evolves amplitude columns with
    ``simulator._gate``, which nothing else calls, and neither of them
    reshapes or swaps axes: no second kernel sits beside it."""
    source = (SRC / "simulator.py").read_text()
    assert callers(source, {"_gate"}) == {"_gate": {"run"}}
    functions = {fn.name: fn for fn in ast.parse(source).body
                 if isinstance(fn, ast.FunctionDef)}
    for name in ("_gate", "run"):
        attributes = {n.attr for n in ast.walk(functions[name])
                      if isinstance(n, ast.Attribute)}
        assert attributes & {"reshape", "swapaxes", "moveaxis"} == set(), name
    assert {"_apply", "apply"} & set(functions) == set()


def test_only_circuits_decides_how_angles_are_stored():
    """A circuit copies its angles into a read-only matrix it owns, so no
    other module sets a writeable flag or looks at an array's base."""
    found = {path.name: [word for word in ("flags.writeable", ".base")
                         if word in path.read_text()]
             for path in sorted(SRC.glob("*.py"))}
    assert found.pop("circuits.py") == ["flags.writeable"]
    assert {name: words for name, words in found.items() if words} == {}


def test_oracle_imports_no_other_nuqsim_module():
    """The analytic oracles share no code with the circuits they check:
    ``oscillation.py`` imports no other nuqsim module, at any depth."""
    tree = ast.parse((SRC / "oscillation.py").read_text())
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
               for a in n.names]
    modules += [("." * n.level) + (n.module or "") for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom)]
    assert "numpy" in modules
    assert [m for m in modules
            if m.startswith(".") or m.split(".")[0] == "nuqsim"] == []


def test_raw_memory_is_touched_in_one_function():
    """Only ``simulator.py`` imports ``ctypes``, only one of its top-level
    functions calls ``from_address`` (the checked LCG-word view that
    ``sample`` writes), and no module imports or reads
    ``numpy.ctypeslib``."""
    importers, readers, ctypeslib = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            modules = []
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{a.name}" for a in node.names]
            if any(m.split(".")[0] == "ctypes" for m in modules):
                importers.add(path.name)
            if any("ctypeslib" in m.split(".") for m in modules) or (
                    isinstance(node, ast.Attribute) and node.attr == "ctypeslib"):
                ctypeslib.add(path.name)
        # a call outside any function is booked to None
        readers |= {(path.name, getattr(top, "name", None))
                    for top in tree.body for n in ast.walk(top)
                    if isinstance(n, ast.Attribute) and n.attr == "from_address"}
    assert importers == {"simulator.py"}
    assert readers == {("simulator.py", "_lcg_words")}
    assert ctypeslib == set()


# Functions that need no reference from the program: the public gate
# factory ``cnot``, and the package's PEP 562 hooks, which Python calls.
NEEDS_NO_REFERENCE = {"cnot", "__getattr__", "__dir__"}
FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def defined_functions(source: str) -> set[str]:
    """Top-level functions, and the methods of top-level classes as
    ``Class.method``, less the data-model methods (``__init__``,
    ``__eq__``, ...) that Python calls."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, FUNCTION_DEFS):
            found.add(node.name)
        elif isinstance(node, ast.ClassDef):
            found |= {f"{node.name}.{fn.name}" for fn in node.body
                      if isinstance(fn, FUNCTION_DEFS)
                      and not re.fullmatch(r"__\w+__", fn.name)}
    return found


def referenced_names(source: str) -> set[str]:
    """Every name a module reads, imports or spells out in a string, each
    part of a dotted string on its own (the bench tracer names what it
    wraps as ``("nuqsim.scan", "run")``)."""
    names = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.split(".")[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            names.update(n.value.split("."))
    return names


def program_sources() -> list[str]:
    """The package, the demos, the bench and the README's Python blocks:
    all the code that runs outside the tests."""
    paths = [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "bench").glob("*.py")]
    readme = (ROOT / "README.md").read_text()
    return ([path.read_text() for path in sorted(paths)]
            + re.findall(r"```python\n(.*?)```", readme, re.S))


def test_every_function_is_reached_from_outside_the_tests():
    """Each function and method of the package is named somewhere in the
    program, so that no code path is kept for the tests alone; only
    NEEDS_NO_REFERENCE is exempt, and each of its entries is still
    unreferenced, so the list stays no longer than it has to be."""
    defined = set().union(*(defined_functions(path.read_text())
                            for path in SRC.glob("*.py")))
    assert {"run", "sample", "ScanConfig.from_dict", "Circuit.point"} <= defined
    read = set().union(*map(referenced_names, program_sources()))
    unreferenced = {name for name in defined
                    if name.rpartition(".")[2] not in read}
    assert unreferenced == NEEDS_NO_REFERENCE
