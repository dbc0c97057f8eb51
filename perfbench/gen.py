"""Seeded, offline generator for the benchmark workloads and their planted truth.

    python3 perfbench/gen.py --workload check-bodies --seed 1 --out DIR

writes the inputs of every op of the workload under DIR and DIR/truth.json.
The truth (records per version pair, verdicts, client usage sites, per-level
upgrade counts, invalid-entry reasons) is written down while the sources are
built, from the catalogue rules in gosrc; semverdiff is never imported here.
The same workload and seed always give the same files.
"""

from __future__ import annotations

import argparse
import datetime
import json
import random
from collections import Counter
from pathlib import Path

import gosrc as g

WORKLOADS = ("check-bodies", "check-decls", "impact-clients", "corpus-report")
FILTERED = "internal"  # one of semverdiff's filtered layout directories

# Pool of version pairs per check workload: 3 fixed quantiles of a Pareto(1.5)
# distribution, so every seed has the same heavy-tailed size mix while names,
# types, bodies and planted changes differ. The median pair has the size of
# the pairs the workloads were first profiled on: 1.5 MB of Go (both sides) for
# check-bodies, 1.1 MB with about 7,000 objects per side for check-decls. Files
# are about 93 KB, as in the ROADMAP's baseline module. The pool is small so
# that each op repeats within a run.
CHECK_LEVELS = 3
CHECK_SIDE_BYTES = {"check-bodies": 475_000, "check-decls": 340_000}  # per side, before the quantile factor
FILE_BYTES = 93_000
PACKAGE_BYTES = 2 * FILE_BYTES

# One op: a small library upgrade against 3 client trees of 10 files, 30 KB each.
IMPACT_OPS = 3
IMPACT_CLIENTS = 3
IMPACT_CLIENT_FILES = 10
IMPACT_IMPORTING_FILES = 2  # per client: the files that import the breaking package
IMPACT_CLIENT_FILE_BYTES = 30_000

LEVELS = ("Major", "Minor", "Patch", "Minor", "Patch", "Development")


def pareto_factors(n: int, alpha: float = 1.5) -> list[float]:
    return [(1.0 - (i + 0.5) / n) ** (-1.0 / alpha) for i in range(n)]


def _tags(rng: random.Random, level: str) -> tuple[str, str]:
    major, minor, patch = rng.randint(1, 4), rng.randint(0, 9), rng.randint(0, 9)
    if level == "Development":
        return f"v0.{minor}.{patch}", f"v0.{minor + 1}.0"
    if level == "Major":
        return f"v{major}.{minor}.{patch}", f"v{major + 1}.0.0"
    if level == "Minor":
        return f"v{major}.{minor}.{patch}", f"v{major}.{minor + 1}.0"
    return f"v{major}.{minor}.{patch}", f"v{major}.{minor}.{patch + 1}"


def _write(root: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def _go_bytes(files: dict[str, str]) -> int:
    return sum(len(t.encode()) for rel, t in files.items() if rel.endswith(".go"))


def _gomod(module: str, requires: list[tuple[str, str]] = ()) -> str:
    return f"module {module}\n\ngo 1.21\n\n" + "".join(f"require {p} {v}\n" for p, v in requires)


class Package:
    """One package's declarations, rendered into an old and a new file set."""

    def __init__(self, rel_dir: str, name: str, decls: list[g.Decl]):
        self.rel_dir, self.name, self.decls = rel_dir, name, decls

    def files(self, side: str, prefix: str) -> dict[str, str]:
        out = {}
        base = f"{self.rel_dir}/" if self.rel_dir else ""
        for i, group in enumerate(g.split_files(self.decls, FILE_BYTES)):
            texts = [getattr(d, side) for d in group if getattr(d, side) is not None]
            out[f"{base}{prefix}{i}.go"] = g.file_text(self.name, texts)
        return out

    def objects(self, side: str) -> int:
        return sum(getattr(d, f"objects_{side}") for d in self.decls if getattr(d, side) is not None)

    def body_bytes(self, side: str) -> int:
        return sum(getattr(d, f"body_bytes_{side}") for d in self.decls)


def _decl_name(d: g.Decl, side: str) -> tuple[str, bool] | None:
    """(name, is a type) of an exported non-method declaration present on that side."""
    text = getattr(d, side)
    if text is None or text.startswith("func ("):
        return None
    name = text.split()[1].split("[")[0].split("(")[0]
    return (name, text.startswith("type ")) if name[0].isupper() else None


def _plan_bodies(rng: random.Random, names: g.Names, budget: int, changes: int) -> list[g.Decl]:
    """Body-heavy declarations; `changes` exported funcs or methods get a signature change."""
    plan = []
    size = 0
    block: list[str] = []
    while size < budget:
        if not block:  # fixed proportions per block of ten, so objects per byte vary little by seed
            block = ["func"] * 4 + ["helper"] * 3 + ["type", "const", "var"]
            rng.shuffle(block)
        kind = block.pop()
        body = rng.randint(500, 2600)
        plan.append((kind, body))
        size += body if kind in ("func", "helper") else (2 * body if kind == "type" else 40)
    slots = [i for i, (kind, _) in enumerate(plan) if kind in ("func", "type")]
    changed = set(rng.sample(slots, min(changes, len(slots))))
    decls: list[g.Decl] = []
    for i, (kind, body) in enumerate(plan):
        if kind == "func":
            change = rng.choice(g.FUNC_CHANGES + ("add",)) if i in changed else None
            decls.append(g.func_decl(rng, names, body, change))
        elif kind == "helper":
            decls.append(g.func_decl(rng, names, body, exported=False))
        elif kind == "type":
            mchange = rng.choice(("param", "remove", "add")) if i in changed else None
            decls.extend(g.struct_decl(rng, names, methods=2, method_change=mchange, body_bytes=body // 2))
        elif kind == "const":
            decls.append(g.const_decl(rng, names))
        else:
            decls.append(g.var_decl(rng, names))
    return decls


def _plan_decls(rng: random.Random, names: g.Names, budget: int, share: float) -> list[g.Decl]:
    """Declaration-dense package: one-line bodies, a `share` of objects changed."""
    decls: list[g.Decl] = []
    size = 0
    while size < budget:
        pick = rng.randrange(9)
        hit = rng.random() < share
        if pick == 0:
            new = [g.func_decl(rng, names, 0, rng.choice(g.FUNC_CHANGES + ("add",)) if hit else None)]
        elif pick == 1:
            change = rng.choice(g.STRUCT_CHANGES + ("add",)) if hit else None
            methods = 0 if change in ("remove", "category", "add") else rng.randint(0, 2)
            mchange = rng.choice(("param", "remove", "add")) if (methods and rng.random() < share) else None
            new = g.struct_decl(rng, names, change, methods=methods, method_change=mchange)
        elif pick == 2:
            new = [g.interface_decl(rng, names, rng.choice(g.IFACE_CHANGES) if hit else None)]
        elif pick == 3:
            new = [g.const_decl(rng, names, rng.choice(g.CONST_CHANGES) if hit else None)]
        elif pick in (4, 5):
            new = [g.var_decl(rng, names, rng.choice(g.VAR_CHANGES) if hit else None, as_type=pick == 5)]
        elif pick == 6:
            new = [g.func_decl(rng, names, 0, "typeparam" if hit else None)]
        elif pick == 7:
            new = [g.generic_type_decl(rng, names, "remove_param" if hit else None)]
        else:
            new = [g.func_decl(rng, names, 0, exported=False)]
        decls.extend(new)
        size += sum(len(d.old or d.new or "") for d in new)
    return decls


def _pkg_name(rng: random.Random, i: int) -> str:
    return f"{rng.choice(g._WORDS)}{i}"


def _filtered_extras(rng: random.Random, names: g.Names, prefix: str) -> tuple[dict[str, str], dict[str, str]]:
    """Files the surface must ignore: a filtered layout dir and a test file, both changed."""
    internal = [g.func_decl(rng, names, 300, "param"), g.const_decl(rng, names, "value")]
    tests = [g.func_decl(rng, names, 200, "remove")]
    old, new = {}, {}
    for side, out in (("old", old), ("new", new)):
        out[f"{FILTERED}/{prefix}/impl.go"] = g.file_text(prefix, [getattr(d, side) for d in internal if getattr(d, side)])
        out[f"extra_{prefix}_test.go"] = g.file_text("main", [getattr(d, side) for d in tests if getattr(d, side)])
    return old, new


def _records(packages: list[tuple[str, Package]]) -> list[list]:
    return [[path, *rec] for path, pkg in packages for d in pkg.decls for rec in d.records]


def _verdict(level: str, records: list[list]) -> dict:
    breaking = sum(1 for r in records if r[4])
    return {"level": level, "breaking_count": breaking,
            "compliant": breaking == 0 or level in ("Major", "Development")}


def gen_check(workload: str, rng: random.Random, out: Path) -> dict:
    dense = workload == "check-decls"
    ops = []
    factors = pareto_factors(CHECK_LEVELS)
    rng.shuffle(factors)
    body_total = go_total = 0
    for idx, factor in enumerate(factors):
        side = int(CHECK_SIDE_BYTES[workload] * factor)
        module = f"example.com/{rng.choice(g._WORDS)}/mod{idx}"
        names = g.Names(rng)
        n_pkgs = max(1, round(side / PACKAGE_BYTES))
        budget = side // n_pkgs
        packages: list[tuple[str, Package]] = []
        for p in range(n_pkgs):
            name = _pkg_name(rng, p)
            rel = "" if p == 0 else f"pkg/{name}"
            if dense:
                decls = _plan_decls(rng, names, budget, share=0.10)
            else:
                decls = _plan_bodies(rng, names, budget, changes=rng.randint(1, 3))
            packages.append((module if not rel else f"{module}/{rel}", Package(rel, name, decls)))
        records = _records(packages)
        only_old = only_new = None
        if dense and rng.random() < 0.5:
            name = _pkg_name(rng, 99)
            only = Package(f"gone/{name}", name, _plan_decls(rng, names, 1500, share=0.0))
            if rng.random() < 0.5:
                only_old = only
                records.append([f"{module}/{only.rel_dir}", "", "Package", "Remove", True])
            else:
                only_new = only
                records.append([f"{module}/{only.rel_dir}", "", "Package", "Add", False])
        level = rng.choice(LEVELS)
        from_tag, to_tag = _tags(rng, level)
        ex_old, ex_new = _filtered_extras(rng, names, f"x{idx}")
        sides = {}
        objects = read_files = 0
        for side, extra, only in (("old", ex_old, only_old), ("new", ex_new, only_new)):
            files = {"go.mod": _gomod(module)}
            for _, pkg in packages + ([("", only)] if only else []):
                pkg_files = pkg.files(side, f"f{idx}_")
                files.update(pkg_files)
                read_files += len(pkg_files)
                objects += pkg.objects(side)
                body_total += pkg.body_bytes(side)
            files.update(extra)
            _write(out / f"pair{idx:02d}" / side, files)
            go_total += _go_bytes(files)
            sides[side] = _go_bytes(files)
        ops.append({
            "old": f"pair{idx:02d}/old", "new": f"pair{idx:02d}/new", "from": from_tag, "to": to_tag,
            "records": sorted(records), "verdict": _verdict(level, records),
            "objects": objects, "go_bytes": sides["old"] + sides["new"], "go_files": read_files,
            "modules": 2, "upgrades": 1, "client_files": 0,
        })
    return {"ops": ops, "props": {"body_byte_share": body_total / go_total, "client_importing_share": 0.0}}


# -- impact ----------------------------------------------------------------------

def _use_line(alias: str, name: str, is_type: bool) -> str:
    return f"\tvar _ {alias}.{name}" if is_type else f"\t_ = {alias}.{name}"


def _client_file(rng: random.Random, pkg: str, imports: list[tuple[str | None, str]],
                 uses: list[tuple[str, str, bool]], body_bytes: int) -> tuple[str, list[tuple[int, str]], int]:
    """A body-heavy client file; uses are (alias, name, is_type) lines placed in its bodies.

    Returns the text, the (line, qualified name) of every use and the body bytes.
    """
    lines = [f"package {pkg}", "", "import ("]
    for alias, path in imports:
        lines.append(f'\t{alias} "{path}"' if alias else f'\t"{path}"')
    lines += [")", ""]
    sites = []
    bodies = 0
    n_funcs = max(1, body_bytes // 1200)
    pending = list(uses)
    rng.shuffle(pending)
    for f in range(n_funcs):
        lines.append(f"func {rng.choice(g._WORDS)}Step{f}(n int) int {{")
        body = g.body_lines(rng, body_bytes // n_funcs, ["int"])
        take = pending[: len(pending) // (n_funcs - f) + (1 if len(pending) % (n_funcs - f) else 0)]
        pending = pending[len(take):]
        for alias, name, is_type in take:
            body.insert(rng.randint(2, len(body) - 1), _use_line(alias, name, is_type))
        for stmt in body:
            if stmt.startswith(("\t_ = ", "\tvar _ ")) and "." in stmt:
                sites.append((len(lines) + 1, stmt.split()[-1]))
            lines.extend(stmt.split("\n"))
            bodies += len(stmt) + 1
        lines += ["}", ""]
    return "\n".join(lines), sites, bodies


_IMPACT_CHANGES = {"param": "func", "return": "func", "remove": "func", "value": "const", "retype": "var",
                   "field_type": "struct"}


def _impact_library(rng: random.Random, module: str, names: g.Names) -> tuple[list[tuple[str, Package]], dict, dict]:
    """A small library: `corekit` carries the breaking changes, `kitutil` only additions.

    Returns the packages, {(package, node): (condition, is a type)} for the
    breaking nodes, and {package: [(name, is a type)]} for unchanged exported names.
    """
    core, util = Package("corekit", "corekit", []), Package("kitutil", "kitutil", [])
    changes = list(_IMPACT_CHANGES)
    rng.shuffle(changes)
    for i in range(26):
        change = changes[i] if i < len(changes) else None
        kind = _IMPACT_CHANGES[change] if change else ("func", "func", "const", "var", "struct")[i % 5]
        if kind == "func":
            core.decls.append(g.func_decl(rng, names, 120, change))
        elif kind == "const":
            core.decls.append(g.const_decl(rng, names, change))
        elif kind == "var":
            core.decls.append(g.var_decl(rng, names, change))
        else:
            core.decls.extend(g.struct_decl(rng, names, change))
    core.decls.append(g.func_decl(rng, names, 120, "add"))
    util.decls = [g.func_decl(rng, names, 120) for _ in range(10)] + [g.func_decl(rng, names, 120, "add")]
    packages = [(f"{module}/corekit", core), (f"{module}/kitutil", util)]
    breaking, stable = {}, {}
    for path, pkg in packages:
        for d in pkg.decls:
            named = _decl_name(d, "old")
            if named and d.records and d.records[0][3]:
                breaking[(path, named[0])] = (d.records[0][2], named[1])
            elif named and not d.records:
                stable.setdefault(path, []).append(named)
    return packages, breaking, stable


def gen_impact(rng: random.Random, out: Path) -> dict:
    ops = []
    body_total = go_total = 0
    for idx in range(IMPACT_OPS):
        module = f"example.com/acme/kit{idx}"
        names = g.Names(rng)
        packages, breaking, stable = _impact_library(rng, module, names)
        core_path, util_path = packages[0][0], packages[1][0]
        level = rng.choice(("Minor", "Patch"))
        from_tag, to_tag = _tags(rng, level)
        lib_bytes = 0
        objects = lib_files = 0
        for side in ("old", "new"):
            files = {"go.mod": _gomod(module)}
            for _, pkg in packages:
                pkg_files = pkg.files(side, "lib")
                files.update(pkg_files)
                lib_files += len(pkg_files)
                objects += pkg.objects(side)
            _write(out / f"op{idx}" / "lib" / side, files)
            lib_bytes += _go_bytes(files)
        usages = []
        client_dirs = []
        client_bytes = client_files = 0
        breaking_names = sorted(breaking)
        for c in range(IMPACT_CLIENTS):
            client_module = f"example.com/users/app{idx}x{c}"
            files = {"go.mod": _gomod(client_module, [(module, from_tag)])}
            for f in range(IMPACT_CLIENT_FILES):
                rel = f"{'cmd/' if f == 0 else 'pkg/'}{rng.choice(g._WORDS)}{f}/file{f}.go"
                imports: list[tuple[str | None, str]] = [(None, "fmt"), (None, "strings")]
                uses: list[tuple[str, str, bool]] = []
                if f < IMPACT_IMPORTING_FILES:
                    alias = rng.choice((None, "kit"))
                    imports.append((alias, core_path))
                    a = alias or "corekit"
                    for key in rng.sample(breaking_names, rng.randint(1, 3)):
                        uses.append((a, key[1], breaking[key][1]))
                    for name, is_type in rng.sample(stable[core_path], 2):
                        uses.append((a, name, is_type))
                elif f % 2:
                    imports.append((None, util_path))
                    for name, is_type in rng.sample(stable[util_path], 2):
                        uses.append(("kitutil", name, is_type))
                text, sites, bodies = _client_file(rng, f"p{f}", imports, uses, IMPACT_CLIENT_FILE_BYTES)
                files[rel] = text
                body_total += bodies
                for line, qual in sites:
                    alias, name = qual.split(".", 1)
                    if alias in ("kit", "corekit") and (core_path, name) in breaking:
                        usages.append([client_module, rel, line, qual, name, breaking[(core_path, name)][0]])
            root = out / f"op{idx}" / f"client{c}"
            _write(root, files)
            client_dirs.append(f"op{idx}/client{c}")
            client_bytes += _go_bytes(files)
            client_files += IMPACT_CLIENT_FILES
        go_total += lib_bytes + client_bytes
        ops.append({
            "lib_old": f"op{idx}/lib/old", "lib_new": f"op{idx}/lib/new", "from": from_tag, "to": to_tag,
            "clients": client_dirs, "records": sorted(_records(packages)), "usages": sorted(usages),
            "scanned": IMPACT_CLIENTS * IMPACT_IMPORTING_FILES, "client_files": client_files,
            "objects": objects, "go_bytes": lib_bytes + client_bytes, "go_files": lib_files + client_files,
            "modules": 2 + IMPACT_CLIENTS, "upgrades": 1,
        })
    return {"ops": ops, "props": {"body_byte_share": body_total / go_total,
                                  "client_importing_share": IMPACT_IMPORTING_FILES / IMPACT_CLIENT_FILES}}


# -- corpus ----------------------------------------------------------------------

# Libraries per corpus, one corpus per op. The median corpus has 48 upgrades
# in about 1.7 MB of Go, the size the corpus workload was first profiled on.
CORPUS_POOL = (8, 12, 16)
CORPUS_LIB_VERSIONS = 5
CORPUS_LIB_DECLS = 80  # declarations every version of a library shares
CORPUS_LIB_BODY_BYTES = 400
CORPUS_CLIENTS = 3
CORPUS_CLIENT_FILES = 3
CORPUS_CLIENT_FILE_BYTES = 8_000
NON_MAJOR = ("Minor", "Patch")
# The corpus skeleton is the same for every seed (release levels, which
# releases break, which versions clients pin), so each seed does the same
# amount of work; the seed picks names, change kinds and source text.
CORPUS_LEVELS = (
    ("Development",) * 4,
    ("Minor", "Patch", "Major", "Minor"),
    ("Patch", "Minor", "Minor", "Patch"),
    ("Minor", "Major", "Patch", "Patch"),
)
CORPUS_BREAKING = (True, False, True, True)  # rotated by library index


def _bump(version: tuple[int, int, int], level: str) -> tuple[int, int, int]:
    major, minor, patch = version
    if level == "Major":
        return (major + 1, 0, 0)
    if level in ("Minor", "Development"):
        return (major, minor + 1, 0)
    return (major, minor, patch + 1)


def _lib_step(rng: random.Random, names: g.Names, breaking: bool) -> list[g.Decl]:
    """The declarations one library release changes; breaking ones never touch methods."""
    decls = [g.func_decl(rng, names, 150, "add")]
    if breaking:
        for _ in range(2):
            pick = rng.randrange(5)
            if pick == 0:
                decls.append(g.func_decl(rng, names, 150, rng.choice(("param", "return", "remove"))))
            elif pick == 1:
                decls.append(g.const_decl(rng, names, rng.choice(g.CONST_CHANGES)))
            elif pick == 2:
                decls.append(g.var_decl(rng, names, rng.choice(g.VAR_CHANGES)))
            elif pick == 3:
                decls.extend(g.struct_decl(rng, names, rng.choice(("field_type", "field_remove", "remove"))))
            else:
                decls.append(g.interface_decl(rng, names, rng.choice(("add_method", "remove_method"))))
    return decls


def _meta(module: str, tag: str, released: str) -> str:
    return json.dumps({"module_path": module, "version": tag, "released_at": released}) + "\n"


def _day(offset: int) -> str:
    return (datetime.date(2021, 1, 1) + datetime.timedelta(days=offset)).isoformat()


def _corpus(rng: random.Random, root: Path, n_libs: int) -> tuple[dict, int]:
    """One corpus under root; returns its truth and the bytes of its function bodies."""
    truth_levels = {label: [0, 0] for label in ("Major", "Minor", "Patch", "Development", "Non-Major", "Total")}
    conditions: Counter = Counter()
    series: dict[str, list[int]] = {}
    invalid: dict[str, str] = {}
    libs = []
    go_bytes = go_files = objects = entries = upgrades = 0
    body_total = 0

    def put(dir_id: str, tag: str, files: dict[str, str], extracted: bool = True) -> None:
        nonlocal go_bytes, go_files, entries
        _write(root / dir_id / tag, files)
        entries += 1
        go_bytes += _go_bytes(files)
        if extracted:
            go_files += sum(1 for rel in files if rel.endswith(".go") and not rel.startswith(("internal/", "cmd/"))
                            and not rel.endswith("_test.go"))

    for li in range(n_libs):
        module, dir_id = f"example.com/lib{li}", f"lib{li}"
        names = g.Names(rng)
        dev = CORPUS_LEVELS[li % len(CORPUS_LEVELS)][0] == "Development"
        base = Package("", f"lib{li}", [])
        for i in range(CORPUS_LIB_DECLS):
            kind = i % 4
            if kind == 0:
                base.decls.append(g.func_decl(rng, names, CORPUS_LIB_BODY_BYTES))
            elif kind == 1:
                base.decls.append(g.const_decl(rng, names))
            elif kind == 2:
                base.decls.extend(g.struct_decl(rng, names))
            else:
                base.decls.append(g.func_decl(rng, names, CORPUS_LIB_BODY_BYTES, exported=False))
        version = (0, 1, 0) if dev else (1, rng.randint(0, 3), 0)
        day = li * 9 + rng.randint(0, 9)
        tags, days, steps, levels = [], [], [], []
        for k in range(CORPUS_LIB_VERSIONS):
            tags.append("v%d.%d.%d" % version)
            days.append(day)
            if k < CORPUS_LIB_VERSIONS - 1:
                level = CORPUS_LEVELS[li % len(CORPUS_LEVELS)][k]
                levels.append(level)
                steps.append(_lib_step(rng, names, CORPUS_BREAKING[(k + li) % len(CORPUS_BREAKING)]))
                version = _bump(version, level)
                day += rng.randint(12, 75)
        lib = {"module": module, "tags": tags, "versions": [], "upgrades": []}
        for j, tag in enumerate(tags):
            # Version j has every step's declaration as it was before the step, if the step is later.
            present = [(d, "old") for d in base.decls] + [
                (d, "old" if j <= k else "new") for k, step in enumerate(steps) for d in step]
            present = [(d, side) for d, side in present if getattr(d, side) is not None]
            files = {"go.mod": _gomod(module), "meta.json": _meta(module, tag, _day(days[j]))}
            files["lib.go"] = g.file_text(f"lib{li}", [getattr(d, side) for d, side in present])
            files["internal/impl/impl.go"] = g.file_text("impl", [f"const Build{j} int = {j}"])
            files["cmd/tool/main.go"] = g.file_text("main", [f"func Tool{j}() {{}}"])
            files["lib_test.go"] = g.file_text(f"lib{li}", [f"func TestRelease{j}() {{}}"])
            put(dir_id, tag, files)
            lib["versions"].append({
                "objects": sum(getattr(d, f"objects_{side}") for d, side in present),
                "names": dict(named for d, side in present if (named := _decl_name(d, side))),
            })
        put(dir_id, "latest", {"go.mod": _gomod(module), "meta.json": _meta(module, "latest", _day(day)),
                               "lib.go": g.file_text(f"lib{li}", ["func Head() {}"])}, extracted=False)
        invalid[f"{dir_id}/latest"] = "bad version"
        for k, level in enumerate(levels):
            records = [[module, *rec] for d in steps[k] for rec in d.records]
            is_breaking = any(r[4] for r in records)
            upgrades += 1
            objects += lib["versions"][k]["objects"] + lib["versions"][k + 1]["objects"]
            for label in (level, "Total") + (("Non-Major",) if level in NON_MAJOR else ()):
                truth_levels[label][0] += 1
                truth_levels[label][1] += is_breaking
            month = _day(days[k + 1])[:7]
            for label in (level,) + (("Non-Major",) if level in NON_MAJOR else ()):
                cell = series.setdefault(f"{month} {label}", [0, 0])
                cell[0] += 1
                cell[1] += is_breaking
            for r in records:
                if r[4]:
                    conditions[f"{r[2]}/{r[3]}"] += 1
            lib["upgrades"].append({"level": level, "records": records})
        libs.append(lib)

    # Clients pin exact library versions and use some of their names, including
    # nodes the next release breaks.
    affected: Counter = Counter()
    used_records: set[tuple[int, int, int]] = set()  # (library, upgrade, record index)
    client_files = 0
    for c in range(CORPUS_CLIENTS):
        module, dir_id = f"example.com/client{c}", f"client{c}"
        for j, tag in enumerate(("v1.0.0", "v1.1.0")):
            pins = []
            refs: dict[int, list[tuple[str, bool]]] = {}
            for li, lib in enumerate(libs):
                r = (c + 2 * j + li) % (CORPUS_LIB_VERSIONS - 1)
                pins.append((lib["module"], lib["tags"][r]))
                here = lib["versions"][r]["names"]
                chosen = rng.sample(sorted(here), 3)
                chosen += [rec[1] for rec in lib["upgrades"][r]["records"] if rec[4] and rec[1] in here]
                refs[li] = [(n, here[n]) for n in dict.fromkeys(chosen)]
            pins.append(("example.com/missing", "v1.0.0"))
            files = {"go.mod": _gomod(module, pins), "meta.json": _meta(module, tag, _day(200 + 40 * j + c))}
            for f in range(CORPUS_CLIENT_FILES):
                imports: list[tuple[str | None, str]] = [(None, "fmt"), (None, "strings")]
                uses = []
                for li in range(f, n_libs, CORPUS_CLIENT_FILES):
                    imports.append((None, libs[li]["module"]))
                    uses += [(f"lib{li}", n, is_type) for n, is_type in refs[li]]
                text, _, bodies = _client_file(rng, "main", imports, uses, CORPUS_CLIENT_FILE_BYTES)
                files[f"cmd{f}.go" if f else "main.go"] = text
                body_total += bodies
            put(dir_id, tag, files)
            for li, lib in enumerate(libs):
                r = lib["tags"].index(pins[li][1])
                upgrade = lib["upgrades"][r]
                if upgrade["level"] not in NON_MAJOR or not any(rec[4] for rec in upgrade["records"]):
                    continue
                client_files += CORPUS_CLIENT_FILES
                used = {n for n, _ in refs[li]}
                for i, rec in enumerate(upgrade["records"]):
                    if rec[4] and rec[1] in used:
                        used_records.add((li, r, i))
                        affected[f"{rec[2]}/{rec[3]}"] += 1
    usage = Counter(f"{rec[2]}/{rec[3]}" for li, r, i in used_records
                    for rec in [libs[li]["upgrades"][r]["records"][i]])

    # One or two entries for every invalid reason, plus a duplicated module path.
    tiny = {"x.go": "package x\n\nfunc Tiny() {}\n"}
    for tag in ("v1.0.0", "v1.1.0"):
        put("junk-nometa", tag, {"go.mod": _gomod("example.com/junk-nometa"), **tiny}, extracted=False)
        invalid[f"junk-nometa/{tag}"] = "missing metadata"
        put("junk-badmeta", tag, {"go.mod": _gomod("example.com/junk-badmeta"), **tiny,
                                  "meta.json": _meta("example.com/junk-badmeta", tag, "someday")}, extracted=False)
        invalid[f"junk-badmeta/{tag}"] = "bad metadata"
        for dir_id, files, reason, extracted in (
            ("junk-nogo", {"go.mod": None}, "no go files", False),
            ("junk-nomod", tiny, "missing manifest", False),
            ("junk-badmod", {"go.mod": "module example.com/junk-badmod\n\nrequire (\n", **tiny}, "malformed manifest", False),
            ("junk-mismatch", {"go.mod": _gomod("example.com/elsewhere"), **tiny}, "module path mismatch", False),
            ("junk-empty", {"go.mod": None, "x.go": "package x\n\nfunc (\n"}, "empty surface", True),
        ):
            module = f"example.com/{dir_id}"
            files = {rel: text if text is not None else _gomod(module) for rel, text in files.items()}
            put(dir_id, tag, {**files, "meta.json": _meta(module, tag, _day(30))}, extracted=extracted)
            invalid[f"{dir_id}/{tag}"] = reason
        dup_meta = {"meta.json": _meta("example.com/dup", tag, _day(10 + int(tag[3])))}
        put("dup-old", tag, {"go.mod": _gomod("example.com/dup"), **tiny, **dup_meta}, extracted=False)
        invalid[f"dup-old/{tag}"] = "duplicate module path"
    for tag, day in (("v1.0.0", 20), ("v1.2.0", 90)):
        put("dup-new", tag, {"go.mod": _gomod("example.com/dup"), **tiny,
                             "meta.json": _meta("example.com/dup", tag, _day(day))})
    for s in range(2):
        module = f"example.com/solo{s}"
        put(f"solo{s}", "v1.0.0", {"go.mod": _gomod(module), **tiny, "meta.json": _meta(module, "v1.0.0", _day(5))})
        invalid[f"solo{s}/v1.0.0"] = "too few valid versions"

    op = {
        "corpus": root.name, "levels": truth_levels, "conditions": dict(conditions), "usage": dict(usage),
        "affected": dict(affected), "series": series, "invalid": invalid, "upgrades": upgrades,
        "entries": entries, "objects": objects, "go_bytes": go_bytes, "go_files": go_files,
        "modules": entries, "client_files": client_files,
    }
    return op, body_total


def gen_corpus(rng: random.Random, out: Path) -> dict:
    ops = []
    body_total = 0
    for i, n_libs in enumerate(CORPUS_POOL):
        op, bodies = _corpus(rng, out / f"corpus{i}", n_libs)
        ops.append(op)
        body_total += bodies
    share = body_total / sum(op["go_bytes"] for op in ops)
    return {"ops": ops, "props": {"body_byte_share": share, "client_importing_share": 0.0}}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's inputs under out and return its truth document."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("check-bodies", "check-decls"):
        truth = gen_check(workload, rng, out)
    elif workload == "impact-clients":
        truth = gen_impact(rng, out)
    elif workload == "corpus-report":
        truth = gen_corpus(rng, out)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    truth.update(workload=workload, seed=seed)
    (out / "truth.json").write_text(json.dumps(truth, indent=1) + "\n", encoding="utf-8")
    return truth


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()
    truth = generate(args.workload, args.seed, args.out)
    print(json.dumps({"ops": len(truth["ops"]), **truth["props"]}))


if __name__ == "__main__":
    main()
