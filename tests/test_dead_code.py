"""Every top-level function and class of ``src/msaconform``, and every public
method of a top-level class, is named somewhere in the package outside its
own definition. Code that only tests call belongs in ``tests/``.

Every annotated field of a top-level class, and every attribute a method
assigns on ``self``, is read as an attribute somewhere in the package: one
that is only ever written is data nothing uses. A read of any attribute of
the same name counts. Likewise every name a module-level assignment binds,
such as a compiled pattern or a constant, is read somewhere in the package,
as a name or as an attribute.

Every name a module imports is used in that module, ``from __future__``
imports aside.

Every parameter of a ``def`` or ``lambda`` is read in its body: one that
is only passed along to be ignored is an input nothing uses. Likewise every
local name a function binds is read somewhere in that function, nested
functions included.

Every exception class is named in some ``except`` clause and derives from a
built-in exception, not from another class of the package: a class that no
handler tells apart from its base carries nothing its message does not.

No two modules assign the same value expression to a module-level name: a
rule such as a transition key's accessor or an array's widths has one home,
which other modules import."""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "msaconform"

ALLOWED = {  # qualified name: why nothing in the package names it
    "serialize_state_machine": "the DOT writer that shows a learned machine is unchanged",
    "build_pta": "the acceptance suite imports it from the package to size prefix trees",
}


def definitions(tree: ast.Module):
    """(qualified name, node) of each top-level def and class and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


FIELDS_ALLOWED = {  # Class.field: why nothing in the package reads it
    "Interpretation.cause_id": "the catalog key; a test checks that it is unique",
}


def parse_modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text("utf-8")) for path in sorted(SRC.glob("*.py"))}


def unnamed_definitions() -> list[str]:
    modules = parse_modules()
    named: dict[str, list[tuple[str, int]]] = {}  # identifier -> (module, line) of each use
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                ident = node.id if isinstance(node, ast.Name) else node.attr
                named.setdefault(ident, []).append((module, node.lineno))
    unnamed = []
    for module, tree in modules.items():
        for qualname, node in definitions(tree):
            if all(m == module and node.lineno <= line <= node.end_lineno
                   for m, line in named.get(node.name, ())):
                unnamed.append(qualname)
    return unnamed


def test_every_definition_is_used():
    assert sorted(set(unnamed_definitions()) - set(ALLOWED)) == []


def test_allowlist_is_needed():
    assert sorted(set(ALLOWED) - set(unnamed_definitions())) == []


def read_attributes(modules) -> set[str]:
    return {node.attr for tree in modules for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields() -> list[str]:
    modules = parse_modules().values()
    read = read_attributes(modules)
    return [f"{cls.name}.{item.target.id}"
            for tree in modules for cls in tree.body if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            and item.target.id not in read]


def test_every_field_is_read():
    assert sorted(set(unread_fields()) - set(FIELDS_ALLOWED)) == []


def test_field_allowlist_is_needed():
    assert sorted(set(FIELDS_ALLOWED) - set(unread_fields())) == []


SELF_ALLOWED: dict[str, str] = {}  # attribute: why nothing in the package reads it


def unread_self_attributes(modules: dict[str, ast.Module]) -> list[str]:
    """Each attribute name assigned on ``self`` that nothing in ``modules`` reads."""
    read = read_attributes(modules.values())
    return sorted({node.attr for tree in modules.values() for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                   and isinstance(node.value, ast.Name) and node.value.id == "self"
                   and node.attr not in read})


def test_every_self_attribute_is_read():
    assert sorted(set(unread_self_attributes(parse_modules())) - set(SELF_ALLOWED)) == []


def test_self_allowlist_is_needed():
    assert sorted(set(SELF_ALLOWED) - set(unread_self_attributes(parse_modules()))) == []


def test_unread_self_attribute_is_caught():
    """A list built and never read, like a copy of each state's incoming
    symbol kept beside the tree's own, is flagged."""
    modules = parse_modules()
    modules["extra.py"] = ast.parse("class Loop:\n"
                                    "    def __init__(self, tree):\n"
                                    "        self.parent_sym = list(tree.sym)\n")
    assert unread_self_attributes(modules) == sorted({"parent_sym", *SELF_ALLOWED})


MODULE_NAMES_ALLOWED = {  # module:name: why nothing in the package reads it
    "__init__.py:__version__": "the package's version, for code that imports it",
}


def unread_module_names(modules: dict[str, ast.Module]) -> list[str]:
    """module:name of each name a module-level assignment binds that nothing
    in ``modules`` reads as a name or as an attribute."""
    read = read_attributes(modules.values()) | {
        node.id for tree in modules.values() for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{module}:{node.id}" for module, tree in modules.items()
                  for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                  for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
                  for node in ast.walk(target)
                  if isinstance(node, ast.Name) and node.id not in read)


def test_every_module_name_is_read():
    assert sorted(set(unread_module_names(parse_modules())) - set(MODULE_NAMES_ALLOWED)) == []


def test_module_name_allowlist_is_needed():
    assert sorted(set(MODULE_NAMES_ALLOWED) - set(unread_module_names(parse_modules()))) == []


def test_unread_module_name_is_caught():
    """A pattern left behind once its last reader went, like a header string
    beside the pattern that now matches the header, is flagged; so is one
    name of a tuple target. A name read in a function, or as a module's
    attribute, is not."""
    modules = {"extra.py": ast.parse("import re\n"
                                     "_HEADER = 'digraph sm {'\n"
                                     "_SHELL: re.Pattern = re.compile('x')\n"
                                     "_SPACE, _START_RE = re.compile(' '), re.compile('y')\n"
                                     "def parse(text):\n"
                                     "    return _SHELL.match(text)\n"),
               "user.py": ast.parse("import extra\n"
                                    "gap = extra._SPACE\n"
                                    "print(gap)\n")}
    assert unread_module_names(modules) == ["extra.py:_HEADER", "extra.py:_START_RE"]


def unused_imports() -> list[str]:
    """module:name of each name a module imports and never uses."""
    unused = []
    for module, tree in parse_modules().items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]  # ``import a.b`` binds ``a``
                    if bound not in used:
                        unused.append(f"{module}:{bound}")
    return unused


def test_every_import_is_used():
    assert unused_imports() == []


def unread_parameters(modules: dict[str, ast.Module]) -> list[str]:
    """module:function:parameter of each parameter of a ``def`` or ``lambda``
    that its body never reads; ``self``, ``cls`` and ``_``-prefixed names aside."""
    unread = []
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *(arg for arg in (args.vararg, args.kwarg) if arg is not None)]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {sub.id for stmt in body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            unread += [f"{module}:{name}:{param.arg}" for param in params
                       if param.arg not in ("self", "cls") and not param.arg.startswith("_")
                       and param.arg not in read]
    return sorted(unread)


def test_every_parameter_is_read():
    assert unread_parameters(parse_modules()) == []


def test_unread_parameter_is_caught():
    """A parameter that the body never reads, like a view passed to a page
    renderer that draws only from the findings, is flagged; so is one of a lambda."""
    modules = {"extra.py": ast.parse("def page(tv, ncs, *, _spare=0):\n"
                                     "    return [nc.id for nc in ncs]\n"
                                     "key = lambda self, kv: 0\n")}
    assert unread_parameters(modules) == ["extra.py:<lambda>:kv", "extra.py:page:tv"]


def unread_locals(modules: dict[str, ast.Module]) -> list[str]:
    """module:function:name of each name a ``def`` binds (by assignment, loop,
    ``with``, ``except``, walrus, comprehension or a nested ``def`` or
    ``class``) that nothing in the function, nested functions included,
    reads; ``_``-prefixed names aside."""
    unread = []
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            bound, read = set(), set()
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Name):
                        (read if isinstance(sub.ctx, ast.Load) else bound).add(sub.id)
                    elif isinstance(sub, ast.ExceptHandler) and sub.name:
                        bound.add(sub.name)
                    elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        bound.add(sub.name)
            unread += [f"{module}:{node.name}:{name}" for name in bound - read
                       if not name.startswith("_")]
    return sorted(unread)


def test_every_local_is_read():
    assert unread_locals(parse_modules()) == []


def test_unread_local_is_caught():
    """A local that is bound and never read, like a snapshot kept beside the
    exact value it copies, is flagged; so are an unused loop target, handler
    name and nested function. A name read only in a nested function is not."""
    modules = {"extra.py": ast.parse("def scan(rows, top):\n"
                                     "    witness = max(rows)\n"
                                     "    keep = top\n"
                                     "    for row, _spare in rows:\n"
                                     "        pass\n"
                                     "    try:\n"
                                     "        pass\n"
                                     "    except ValueError as exc:\n"
                                     "        pass\n"
                                     "    def unused():\n"
                                     "        return keep\n"
                                     "    return [r for r in rows]\n")}
    assert unread_locals(modules) == ["extra.py:scan:exc", "extra.py:scan:row",
                                      "extra.py:scan:unused", "extra.py:scan:witness"]


BUILTIN_EXCEPTIONS = {name for name, value in vars(builtins).items()
                      if isinstance(value, type) and issubclass(value, BaseException)}


def unneeded_exceptions(modules: dict[str, ast.Module]) -> list[str]:
    """Each exception class of ``modules`` that no ``except`` clause names, or
    that derives from another exception class of ``modules``."""
    bases = {cls.name: {base.id for base in cls.bases if isinstance(base, ast.Name)}
             for tree in modules.values() for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef)}
    exceptions: set[str] = set()
    for _ in bases:  # one more level of subclasses each time
        exceptions |= {name for name, of in bases.items()
                       if of & BUILTIN_EXCEPTIONS or of & exceptions}
    caught = {node.id for tree in modules.values() for handler in ast.walk(tree)
              if isinstance(handler, ast.ExceptHandler) and handler.type is not None
              for node in ast.walk(handler.type) if isinstance(node, ast.Name)}
    return sorted(name for name in exceptions if name not in caught or bases[name] & exceptions)


def test_every_exception_is_caught_by_name():
    assert unneeded_exceptions(parse_modules()) == []


def test_unneeded_exception_is_caught():
    """A subclass of the package's own exception class is flagged even where a
    handler names it, like an error per input file beside the input error;
    so is a class that no handler names. A class that is no exception is not."""
    modules = {"extra.py": ast.parse("class InputError(Exception): pass\n"
                                     "class BadLine(InputError): pass\n"
                                     "class Spare(ValueError): pass\n"
                                     "class Plain: pass\n"
                                     "try:\n"
                                     "    pass\n"
                                     "except (InputError, BadLine):\n"
                                     "    pass\n")}
    assert unneeded_exceptions(modules) == ["BadLine", "Spare"]


def duplicated_values(modules: dict[str, ast.Module]) -> list[list[str]]:
    """The ``module:name`` targets of each value expression, compared by
    ``ast.dump``, that module-level assignments of more than one module
    of ``modules`` bind."""
    targets: dict[str, list[str]] = {}  # dumped value -> its module:name targets
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                names = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets.setdefault(ast.dump(node.value), []).extend(
                    f"{module}:{ast.unparse(name)}" for name in names)
    return sorted(sorted(group) for group in targets.values()
                  if len({target.split(":")[0] for target in group}) > 1)


def test_no_value_is_assigned_in_two_modules():
    assert duplicated_values(parse_modules()) == []


def test_duplicated_value_is_caught():
    """An accessor or a constant that a second module defines again, like a
    transition key's ``itemgetter(0)`` or an array's typecodes, is flagged
    with every target of its value, in its own module too; a value that one
    module binds twice, or that only a function binds, is not."""
    modules = {"a.py": ast.parse("from operator import itemgetter\n"
                                 "_source = itemgetter(0)\n"
                                 "_target = itemgetter(0)\n"
                                 "WIDTHS: str = 'HIQ'\n"
                                 "ONE = TWO = 1\n"),
               "b.py": ast.parse("_source = itemgetter(0)\n"
                                 "_TYPES = 'HIQ'\n"
                                 "def f():\n"
                                 "    one = 1\n"
                                 "    return one\n")}
    assert duplicated_values(modules) == [["a.py:WIDTHS", "b.py:_TYPES"],
                                          ["a.py:_source", "a.py:_target", "b.py:_source"]]
