"""Rules read off the library source with ast.

Exit code 3 means "a cross-check failed": cli.main turns InternalMismatch
into exit 3 and lets every other AssertionError escape as a traceback, and
python -O strips assert statements.  So library code raises InternalMismatch
for a failed cross-check, and only errors.py names AssertionError, as its
base class.

The library computes in ints: Fraction is named only inside
exact_linalg.char_poly, for a Hessenberg pivot that does not divide.  A
sign is written in parity form, -1 if e % 2 else 1, never as (-1) ** e,
which is a float when e < 0.

No code is kept that only its own unit test calls: every top-level function,
class and namedtuple record (Name = namedtuple(...)) is named somewhere
outside itself in the library, bench/, README.md or the acceptance tests,
and every method other than a __dunder__ one is read as an attribute
(x.name) outside itself in the library, bench/ or the acceptance tests, or
named in README.md.  A local variable of the same name
does not keep a method alive.  No state is kept that only unit tests read:
every __slots__ entry and every namedtuple field is read as an attribute in
the library, bench/ or the acceptance tests, or named in README.md.  A class
that only stores its arguments in slots is a record, and a record is a
namedtuple.

cli.main is the one writer of stdout: sys.stdout and args.format are named
nowhere else in the library, so the cmd_* handlers return data and main
picks the format.
"""

import ast
import pathlib
import re

import gentlekit

SOURCES = sorted(pathlib.Path(gentlekit.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parent.parent


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_no_assert_statements_or_bare_assertion_errors():
    assert len(SOURCES) >= 10
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d assert" % (path.name, node.lineno))
            elif (isinstance(node, ast.Raise) and node.exc is not None
                    and _raised_name(node) == "AssertionError"
                    and path.name != "errors.py"):
                found.append("%s:%d raise AssertionError"
                             % (path.name, node.lineno))
    assert found == []


def _named(*trees):
    """Every name, attribute and imported name in the trees."""
    out = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
    return out


def _read_attributes(*trees):
    """The name in every attribute read x.name in the trees."""
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _readme_words():
    return set(re.findall(r"\w+", (ROOT / "README.md").read_text()))


def _outside_sources():
    """bench/*.py and the acceptance tests, the code outside the library
    that may keep a library name alive."""
    return [*sorted((ROOT / "bench").glob("*.py")),
            ROOT / "tests" / "test_acceptance.py"]


def _definition_name(node):
    """The name a top-level statement defines: that of a def or class, or
    the Name of Name = namedtuple(...); else None."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "namedtuple"):
        return node.targets[0].id
    return None


def test_every_definition_is_named_outside_itself():
    # __init__.py only re-exports, so a name there does not count; a
    # top-level definition counts any name, a method only attribute reads
    readme = _readme_words()
    outside = {False: set(readme), True: set(readme)}
    for path in _outside_sources():
        tree = ast.parse(path.read_text(), str(path))
        outside[False] |= _named(tree)
        outside[True] |= _read_attributes(tree)
    # the names in each statement of each library module, a class split into
    # the statements of its body: (top-level node, statement, names counted
    # for a top-level definition and for a method)
    units, defs = [], []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            # (statement, its trees): a class's header and body statements
            parts = [(node, [node])]
            if isinstance(node, ast.ClassDef):
                header = node.bases + node.keywords + node.decorator_list
                parts = [(node, header)] + [(s, [s]) for s in node.body]
                defs += [(path, s, s.name, True) for s in node.body
                         if isinstance(s, ast.FunctionDef)
                         and not (s.name.startswith("__")
                                  and s.name.endswith("__"))]
            units += [(node, stmt, {False: _named(*trees),
                                    True: _read_attributes(*trees)})
                      for stmt, trees in parts]
            name = _definition_name(node)
            if name:
                defs.append((path, node, name, False))
    # a top-level definition counts only names outside its whole statement,
    # a method also those in the rest of its class
    orphans = ["%s:%d %s" % (path.name, node.lineno, name)
               for path, node, name, method in defs
               if name not in outside[method] and not any(
                   name in names[method] for top, stmt, names in units
                   if node is not top and node is not stmt)]
    assert len(defs) >= 150
    assert sum(isinstance(node, ast.Assign) for _, node, _, _ in defs) >= 9
    assert orphans == []


def _slot_entries(tree):
    """(line, name) for each entry of each __slots__ tuple in the tree, and
    for each field of each namedtuple("Name", (...)) call."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in node.targets)):
            value = node.value
            entries = value.elts if isinstance(value, (ast.Tuple, ast.List)) \
                else [value]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "namedtuple"):
            entries = node.args[1].elts
        else:
            continue
        for entry in entries:
            yield node.lineno, entry.value


def test_every_slot_is_read():
    """Every __slots__ entry and every field of a namedtuple("Name", (...))
    call in the library is read as x.name in the library, bench/ or the
    acceptance tests, or named in README.md.  Output fields that only
    cli._json reads, through _fields, are named in README's list of JSON
    keys."""
    read = _readme_words()
    slots = []
    for path in [*SOURCES, *_outside_sources()]:
        tree = ast.parse(path.read_text(), str(path))
        read |= _read_attributes(tree)
        if path in SOURCES:
            slots += [(path.name, line, name)
                      for line, name in _slot_entries(tree)]
    unread = ["%s:%d %s" % slot for slot in slots if slot[2] not in read]
    assert len(slots) >= 40
    assert unread == []


def _stored_argument(value, args):
    """The argument that value is, or that a call of one name on it is
    (tuple(x), dict(x)), else None."""
    if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and len(value.args) == 1 and not value.keywords):
        value = value.args[0]
    if isinstance(value, ast.Name) and value.id in args:
        return value.id
    return None


def _is_record_class(node):
    """Does the class body hold only a docstring, __slots__, an __init__
    that stores each of its arguments in one slot, and maybe __repr__?"""
    slots, init = None, None
    for stmt in node.body:
        if (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)):
            continue
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "__slots__"):
            slots = stmt.value
        elif isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            init = stmt
        elif not (isinstance(stmt, ast.FunctionDef)
                  and stmt.name == "__repr__"):
            return False
    if slots is None or init is None:
        return False
    names = [e.value for e in getattr(slots, "elts", [slots])]
    args = [a.arg for a in init.args.args[1:]]
    stored = {}
    for stmt in init.body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Attribute)
                and isinstance(stmt.targets[0].value, ast.Name)
                and stmt.targets[0].value.id == "self"):
            return False
        stored[stmt.targets[0].attr] = _stored_argument(stmt.value, args)
    return (sorted(stored) == sorted(names)
            and sorted(stored.values(), key=str) == sorted(args))


def test_records_are_namedtuples():
    """A class whose body only stores its constructor's arguments in its
    slots is a record; it is written as a namedtuple, whose fields
    test_every_slot_is_read checks like slots."""
    classes, records = 0, []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                classes += 1
                if _is_record_class(node):
                    records.append("%s:%d %s"
                                   % (path.name, node.lineno, node.name))
    assert classes >= 10
    assert records == []


def _output_nodes(tree):
    """The nodes that name sys.stdout, import stdout, or read args.format."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "stdout"
                or isinstance(node, ast.alias)
                and node.name.rpartition(".")[2] == "stdout"
                or isinstance(node, ast.Attribute) and node.attr == "format"
                and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            yield node


def test_stdout_and_format_only_in_cli_main():
    outside, inside = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        for node in tree.body:
            if (path.name == "cli.py" and isinstance(node, ast.FunctionDef)
                    and node.name == "main"):
                allowed = set(map(id, _output_nodes(node)))
        for node in _output_nodes(tree):
            if id(node) in allowed:
                inside.add(node.attr)
            else:
                outside.append("%s:%d" % (path.name, node.lineno))
    assert outside == []
    assert inside == {"stdout", "format"}


def _fraction_nodes(tree):
    """The nodes that name Fraction or import from the fractions module."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == "Fraction"
                or isinstance(node, ast.Attribute) and node.attr == "Fraction"
                or isinstance(node, ast.alias)
                and node.name.rpartition(".")[2] in ("Fraction", "fractions")
                or isinstance(node, ast.ImportFrom)
                and node.module == "fractions"):
            yield node


def test_fraction_only_in_char_poly():
    outside, inside = [], 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        for node in tree.body:
            if (path.name == "exact_linalg.py"
                    and isinstance(node, ast.FunctionDef)
                    and node.name == "char_poly"):
                allowed = set(map(id, _fraction_nodes(node)))
        for node in _fraction_nodes(tree):
            if id(node) in allowed:
                inside += 1
            else:
                outside.append("%s:%d" % (path.name, node.lineno))
    assert outside == []
    assert inside >= 1


def _is_minus_one(node):
    return (isinstance(node, ast.Constant) and node.value == -1
            or isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and node.operand.value == 1)


def test_no_power_of_minus_one():
    found = ["%s:%d" % (path.name, node.lineno) for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
             and _is_minus_one(node.left)]
    assert found == []
