import ast
import collections
import pathlib
import types

import stabforce


def test_all_lists_every_public_name_and_no_submodule():
    names = stabforce.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert not isinstance(getattr(stabforce, name), types.ModuleType), name
    public = {name for name, value in vars(stabforce).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from stabforce import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(stabforce.__all__)


def test_no_module_imports_a_name_it_never_uses():
    package = pathlib.Path(stabforce.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def _names(tree) -> collections.Counter:
    """How often each identifier is read: bare names, attributes and imports."""
    out = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_private_function_and_class_is_used():
    package = pathlib.Path(stabforce.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    used = sum((_names(tree) for tree in trees.values()), collections.Counter())
    dead = [f"{name}:{node.lineno} {node.name}" for name, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and used[node.name] <= _names(node)[node.name]]
    assert dead == []


def test_only_the_compile_pass_and_base_at_most_walk_the_base_links():
    """Outside the constructor, ``._base`` is read only where the links are
    walked: ``_base_at_most`` picks a base and ``_compiled`` compiles and
    validates the chain.  A second walk would repeat the compile pass."""
    package = pathlib.Path(stabforce.__file__).parent
    allowed = {"_init", "_base_at_most", "_compiled"}
    seen, stray = set(), []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {}
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name in allowed \
                    and path.name == "stability.py":
                inside.update((id(node), func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_base":
                if id(node) in inside:
                    seen.add(inside[id(node)])
                else:
                    stray.append(f"{path.name}:{node.lineno}")
    assert stray == [] and seen == allowed


def test_no_assert_statement_in_the_package():
    """``python -O`` deletes every assert, so a check the program relies on
    must raise; a fact proved by construction needs neither."""
    package = pathlib.Path(stabforce.__file__).parent
    asserts = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Assert)]
    assert asserts == []



def _calls(name: str) -> list[tuple[int, str | None, ast.Call]]:
    """(line, called name, node) for each call in a package module."""
    path = pathlib.Path(stabforce.__file__).parent / name
    return [(node.lineno, getattr(node.func, "id", getattr(node.func, "attr", None)), node)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)]


def test_interval_sets_bisect_plain_ends():
    """``ordinal.py`` bisects the end tuples of its interval sets without a
    key function, and ``stability.py`` builds no ``OrdinalInterval``: the
    kernel works on end tuples, and interval objects are made only for a
    caller that iterates a set."""
    keyed = [f"ordinal.py:{line}" for line, called, node in _calls("ordinal.py")
             if called in ("bisect_left", "bisect_right")
             and any(kw.arg == "key" for kw in node.keywords)]
    built = [f"stability.py:{line}" for line, called, _ in _calls("stability.py")
             if called == "OrdinalInterval"]
    assert keyed == [] and built == []


def test_terms_are_spelled_in_one_place():
    """``ordinal._format_terms`` alone spells terms: every ``IntervalSet._ends``
    call passes the two end tuples and nothing else (a starred ``_cut`` call
    is both), and neither ``Ordinal`` nor ``StabilitySystem`` declares a slot
    for text, so no spelling table rides along with the sets again."""
    package = pathlib.Path(stabforce.__file__).parent

    def arity(node: ast.Call) -> int:
        cut = [arg for arg in node.args if isinstance(arg, ast.Starred)
               and getattr(getattr(arg.value, "func", None), "id", None) == "_cut"]
        return len(node.args) + len(cut) + len(node.keywords)

    calls = [(path.name, line, arity(node)) for path in sorted(package.glob("*.py"))
             for line, called, node in _calls(path.name) if called == "_ends"]
    assert len(calls) > 5 and [c for c in calls if c[2] != 2] == []
    spelling = [f"{cls.__name__}.{slot}" for cls in (stabforce.Ordinal, stabforce.StabilitySystem)
                for slot in cls.__slots__ if "text" in slot or "name" in slot]
    assert spelling == []


def test_json_documents_are_read_in_one_place():
    """Only ``stability.py`` parses JSON text or builds the refusals that the
    readers of systems, chains and patterns share (an unknown field, a
    missing field, a field of the wrong type), so one rule set refuses every
    document.  ``parse_ordinal``'s own refusal of a value that is not text is
    the one other type refusal, for its library callers."""
    package = pathlib.Path(stabforce.__file__).parent
    where = collections.defaultdict(set)
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {id(node) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == "parse_ordinal"
                  for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and getattr(node.func.value, "id", None) == "json" \
                    and node.func.attr in ("load", "loads"):
                where["json.load"].add(path.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "json" \
                    and {"load", "loads"} & {alias.name for alias in node.names}:
                where["json.load"].add(path.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if " fields: " in node.value:
                    where["unknown field"].add(path.name)
                if " is missing '" in node.value:
                    where["missing field"].add(path.name)
                if ", got " in node.value and id(node) not in exempt:
                    where["type refusal"].add(path.name)
    assert dict(where) == {what: {"stability.py"} for what in
                           ("json.load", "unknown field", "missing field", "type refusal")}
