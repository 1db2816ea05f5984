"""Whole-program model: modules, classes, functions, import resolution.

The per-file rules (R001–R010) see one module at a time.  The
interprocedural passes (R011–R014) need to know *what calls what* across
module boundaries, which starts here: a :class:`Project` indexes every
parsed module, every class (with its bases, methods, and inferred
attribute types) and every function under a stable dotted qualname, and
resolves names through import aliases and ``__init__``-level re-exports.

The model is deliberately conservative and syntactic — no imports are
executed, nothing outside the analysed file set is followed.  A name
that cannot be resolved inside the project simply resolves to ``None``
and the dataflow passes treat it as opaque.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.astutil import dotted_name

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "Project",
    "build_project",
    "project_from_sources",
]


@dataclass
class FunctionInfo:
    """One function or method definition and where it lives."""

    qualname: str  # "pkg.mod.f" or "pkg.mod.Cls.f"
    module: str
    name: str
    cls: str | None  # owning class *qualname*, None for module level
    node: ast.FunctionDef | ast.AsyncFunctionDef
    path: str

    @property
    def params(self) -> list[str]:
        a = self.node.args
        names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        if a.vararg:
            names.append("*" + a.vararg.arg)
        if a.kwarg:
            names.append("**" + a.kwarg.arg)
        return names


@dataclass
class ClassInfo:
    """One class: bases, methods, and inferred attribute types."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    path: str
    bases: list[str] = field(default_factory=list)  # dotted, unresolved
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)  # attr -> dotted
    is_protocol: bool = False

    @property
    def public_methods(self) -> list[str]:
        return [m for m in self.methods if not m.startswith("_")]


@dataclass
class ModuleInfo:
    """One parsed module plus its import table and top-level definitions."""

    name: str
    path: str
    tree: ast.Module
    source: str
    is_package: bool = False
    imports: dict[str, str] = field(default_factory=dict)  # alias -> dotted
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)


def _annotation_names(node: ast.expr | None) -> list[str]:
    """Dotted class names mentioned by an annotation (best effort).

    Handles ``X``, ``a.b.X``, ``X | None``, ``Optional[X]``-style
    subscripts and string annotations such as ``"ProcessorReallocator"``.
    """
    if node is None:
        return []
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return []
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        dn = dotted_name(node)
        return [dn] if dn else []
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_names(node.left) + _annotation_names(node.right)
    if isinstance(node, ast.Subscript):
        # Optional[X] / list[X]: record the arguments, not the container
        inner = node.slice
        parts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        out: list[str] = []
        for part in parts:
            out.extend(_annotation_names(part))
        return out
    return []


def _relative_base(module: str, is_package: bool, level: int) -> str:
    """The absolute package a ``from ...x import y`` resolves against."""
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop:
        parts = parts[:-drop] if drop <= len(parts) else []
    return ".".join(parts)


def _collect_imports(mod: ModuleInfo) -> None:
    """Fill ``mod.imports`` (alias -> absolute dotted name).

    Walks the *whole* tree so function-local lazy imports (the idiom the
    CLI uses to keep startup fast) are captured too.
    """
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                mod.imports.setdefault(name, target)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _relative_base(mod.name, mod.is_package, node.level)
                origin = f"{base}.{node.module}" if node.module else base
            else:
                origin = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name
                mod.imports.setdefault(name, f"{origin}.{alias.name}")


def _function_info(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    mod: ModuleInfo,
    cls: ClassInfo | None,
) -> FunctionInfo:
    owner = cls.qualname if cls is not None else mod.name
    return FunctionInfo(
        qualname=f"{owner}.{node.name}",
        module=mod.name,
        name=node.name,
        cls=cls.qualname if cls is not None else None,
        node=node,
        path=mod.path,
    )


def _collect_definitions(mod: ModuleInfo) -> None:
    for node in mod.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = _function_info(node, mod, None)
            mod.functions[node.name] = info
        elif isinstance(node, ast.ClassDef):
            cls = ClassInfo(
                qualname=f"{mod.name}.{node.name}",
                module=mod.name,
                name=node.name,
                node=node,
                path=mod.path,
            )
            for base in node.bases:
                dn = dotted_name(base)
                if dn:
                    cls.bases.append(dn)
                    if dn.split(".")[-1] == "Protocol":
                        cls.is_protocol = True
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods[item.name] = _function_info(item, mod, cls)
                elif isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    for ann in _annotation_names(item.annotation):
                        cls.attr_types.setdefault(item.target.id, ann)
            _infer_init_attr_types(cls)
            mod.classes[node.name] = cls


def _infer_init_attr_types(cls: ClassInfo) -> None:
    """Record ``self.x = <typed param>`` / ``self.x = Cls(...)`` in __init__."""
    init = cls.methods.get("__init__")
    if init is None:
        return
    args = init.node.args
    param_ann: dict[str, str] = {}
    for p in args.posonlyargs + args.args + args.kwonlyargs:
        names = _annotation_names(p.annotation)
        if names:
            param_ann[p.arg] = names[0]
    for node in ast.walk(init.node):
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.target is not None:
            targets = [node.target]
            value = node.value
            ann = _annotation_names(node.annotation)
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and ann
                ):
                    cls.attr_types.setdefault(target.attr, ann[0])
        for target in targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if isinstance(value, ast.Name) and value.id in param_ann:
                cls.attr_types.setdefault(target.attr, param_ann[value.id])
            elif isinstance(value, ast.Call):
                callee = dotted_name(value.func)
                if callee and callee[0].isalpha() and callee.split(".")[-1][0].isupper():
                    cls.attr_types.setdefault(target.attr, callee)


class Project:
    """Every analysed module indexed for cross-module name resolution."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        #: every function/method by qualname
        self.functions: dict[str, FunctionInfo] = {}
        #: every class by qualname
        self.classes: dict[str, ClassInfo] = {}
        #: class name (bare) -> qualnames carrying it (for annotation lookup)
        self.class_names: dict[str, list[str]] = {}

    def add_module(self, mod: ModuleInfo) -> None:
        _collect_imports(mod)
        _collect_definitions(mod)
        self.modules[mod.name] = mod
        for fn in mod.functions.values():
            self.functions[fn.qualname] = fn
        for cls in mod.classes.values():
            self.classes[cls.qualname] = cls
            self.class_names.setdefault(cls.name, []).append(cls.qualname)
            for meth in cls.methods.values():
                self.functions[meth.qualname] = meth

    # -- name resolution --------------------------------------------------

    def resolve(self, module: str, dotted: str) -> str | None:
        """Absolute dotted name for ``dotted`` as written inside ``module``.

        Follows the module's import aliases and local definitions; returns
        ``None`` when the head of the chain is unknown (builtin, local
        variable, external package object...).
        """
        mod = self.modules.get(module)
        if mod is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in mod.imports:
            base = mod.imports[head]
        elif head in mod.functions or head in mod.classes:
            base = f"{module}.{head}"
        elif mod.is_package and f"{module}.{head}" in self.modules:
            base = f"{module}.{head}"
        else:
            return None
        return f"{base}.{rest}" if rest else base

    def canonicalize(self, qualified: str | None) -> str | None:
        """Follow re-export chains until a project definition is found.

        ``repro.obs.get_recorder`` (imported into ``obs/__init__.py`` from
        ``obs/recorder.py``) canonicalizes to
        ``repro.obs.recorder.get_recorder``.  Bounded to 10 hops.
        """
        for _ in range(10):
            if qualified is None:
                return None
            if qualified in self.functions or qualified in self.classes:
                return qualified
            if qualified in self.modules:
                return None  # a module, not a definition
            owner, _, leaf = qualified.rpartition(".")
            if not owner:
                return None
            # method on a known class? ("pkg.mod.Cls" + ".meth")
            cls = self.classes.get(owner)
            if cls is not None:
                meth = self.lookup_method(owner, leaf)
                return meth.qualname if meth is not None else None
            mod = self.modules.get(owner)
            if mod is None or leaf not in mod.imports:
                return None
            qualified = mod.imports[leaf]
        return None

    def resolve_class(self, module: str, name: str) -> str | None:
        """Resolve an annotation name to a class qualname (best effort)."""
        resolved = self.canonicalize(self.resolve(module, name))
        if resolved in self.classes:
            return resolved
        # fall back to a unique bare-name match (string annotations often
        # name classes that are only imported under TYPE_CHECKING)
        bare = name.split(".")[-1]
        candidates = self.class_names.get(bare, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    # -- class hierarchy --------------------------------------------------

    def base_classes(self, qualname: str) -> list[str]:
        """Resolved base-class qualnames of ``qualname`` (direct only)."""
        cls = self.classes.get(qualname)
        if cls is None:
            return []
        out = []
        for base in cls.bases:
            resolved = self.resolve_class(cls.module, base)
            if resolved is not None:
                out.append(resolved)
        return out

    def subclasses(self, qualname: str) -> list[str]:
        """Transitive subclasses of ``qualname`` inside the project."""
        direct: dict[str, list[str]] = {}
        for cq in self.classes:
            for bq in self.base_classes(cq):
                direct.setdefault(bq, []).append(cq)
        out: list[str] = []
        frontier = [qualname]
        while frontier:
            cur = frontier.pop()
            for sub in direct.get(cur, []):
                if sub not in out:
                    out.append(sub)
                    frontier.append(sub)
        return out

    def lookup_method(self, class_qualname: str, name: str) -> FunctionInfo | None:
        """Find ``name`` on the class or (breadth-first) its bases."""
        seen: set[str] = set()
        frontier = [class_qualname]
        while frontier:
            cur = frontier.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            cls = self.classes.get(cur)
            if cls is None:
                continue
            if name in cls.methods:
                return cls.methods[name]
            frontier.extend(self.base_classes(cur))
        return None

    def protocol_implementors(self, protocol_qualname: str) -> list[str]:
        """Classes structurally satisfying a Protocol's public methods."""
        proto = self.classes.get(protocol_qualname)
        if proto is None or not proto.is_protocol:
            return []
        required = set(proto.public_methods)
        if not required:
            return []
        out = []
        for cq, cls in self.classes.items():
            if cq == protocol_qualname or cls.is_protocol:
                continue
            if required <= set(cls.methods):
                out.append(cq)
        return out


def build_project(
    parsed: list[tuple[str, str, ast.Module, str]],
) -> Project:
    """Build a project from ``(module, path, tree, source)`` records."""
    project = Project()
    for module, path, tree, source in parsed:
        project.add_module(
            ModuleInfo(
                name=module,
                path=path,
                tree=tree,
                source=source,
                is_package=path.endswith("__init__.py") or module.count(".") == 0,
            )
        )
    return project


def project_from_sources(sources: dict[str, str]) -> Project:  # reprolint: disable=R016 -- in-memory entry point the reprolint self-tests feed fixtures through
    """Test helper: build a project from ``{dotted_module: source}``.

    Module names ending in ``.__init__`` mark packages (the suffix is
    stripped from the stored module name).
    """
    records: list[tuple[str, str, ast.Module, str]] = []
    packages: set[str] = set()
    for module, source in sources.items():
        name = module
        suffix = "/module.py"
        if module.endswith(".__init__") or "." not in module:
            name = module.removesuffix(".__init__")
            suffix = "/__init__.py"
            packages.add(name)
        records.append(
            (name, f"<{name}>{suffix}", ast.parse(source), source)
        )
    # parents of any module are packages too
    for module, _, _, _ in records:
        parent = module.rpartition(".")[0]
        if parent:
            packages.add(parent)
    project = Project()
    for name, path, tree, source in records:
        project.add_module(
            ModuleInfo(
                name=name,
                path=path,
                tree=tree,
                source=source,
                is_package=name in packages or path.endswith("__init__.py"),
            )
        )
    return project
