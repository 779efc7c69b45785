"""Command line front end.

A run is described by an INI file ([group], [filtration], [task], [output])
plus a few flags; results land as a CSV table and a JSON summary in the
output directory.  Exit codes: 0 success, 2 configuration problems
(including growth-bound rejections and insufficient transfer inputs),
3 resource caps, 4 failed verification of a certified property or witness.
"""
import argparse
import configparser
import json
import re
import sys
from array import array
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import numpy as np

from .boxspace import build_box_space, isometry_profile
from .cayley import SLICE, GrowthBound, build_quotient_cayley, fit_growth, growth_profile
from .covers import (
    Cover,
    CoverParams,
    _ranges,
    cover_prop41,
    diagonal_transfer,
    families_from_multiplicity_cover,
    verify_cover,
)
from .dimension import asdim_profile, random_metric_space, rs_dim
from .errors import (
    BoxdimError,
    ConfigError,
    GrowthBoundError,
    InsufficientInputError,
    ResourceCapError,
    VerificationError,
    check_int,
)
from .groups import (
    Filtration,
    direct_product,
    free_abelian,
    hirsch_length,
    unitriangular,
)

def _ints(text):
    return [int(t) for t in re.split(r"[,\s]+", text.strip()) if t]


def _bool(text):
    """An INI boolean, spelled as configparser accepts it (yes/no, on/off...)."""
    value = configparser.ConfigParser.BOOLEAN_STATES.get(text.lower())
    if value is None:
        raise ValueError("not a boolean")
    return value


# kind -> (constructor, (generators, coordinates) at rank or size n >= 1)
FACTOR_KINDS = {"free_abelian": (free_abelian, lambda n: (n, n)),
                "unitriangular": (unitriangular, lambda n: (n - 1, n * (n - 1) // 2))}


def _factors(text):
    """The (kind, rank or size) pairs of direct_product factors."""
    factors = []
    for item in re.split(r"[,\s]+", text.strip()):
        if item:
            name, _, arg = item.partition(":")
            if name not in FACTOR_KINDS:
                raise ConfigError(f"unknown factor kind {name!r}")
            factors.append((name, int(arg)))
    return factors


_GROWTH = ("growth_c", "growth_d", "growth_r_max")
# the keys each INI section may hold, [task] by task name; _check_keys
# refuses any other
INI_KEYS = {"group": {"kind", "rank", "size", "factors"},
            "filtration": {"moduli", "rule", "base", "count", "nested"},
            "task": {task: {"name", *keys} for task, keys in {
                "growth": ("r_max", "growth_d"), "quotient": (), "boxspace": (),
                "isoradius": ("k_list",), "cover": ("r", *_GROWTH), "families": ("r", *_GROWTH),
                "rsdim": ("source", "r", "s", "method", "component", "points", "max_distance"),
                "profile": ("r_list", "s_cap", "mode", *_GROWTH),
                "transfer": ("r", "s", "r0", "radii")}.items()},
            "limits": {"vertex_cap", "state_cap"}, "output": {"dir", "csv", "summary"}}


def _check_keys(cfg):
    """Refuse a section or key INI_KEYS does not list, [task] keys by the
    row of its task name (only name itself when that is no task); [DEFAULT]
    holds none."""
    task = cfg["task"].get("name") if "task" in cfg else None
    known = {**INI_KEYS, "task": INI_KEYS["task"].get(task, {"name"})}
    bad = [f"[{name}]" for name in cfg.sections() if name not in known]
    bad += [f"[{name}] {key}" for name in ["DEFAULT", *cfg.sections()]
            for key in sorted(cfg[name]) if key not in known.get(name, ())]
    if bad:
        raise ConfigError(f"unknown INI section or key {bad[0]}")


_MISSING = object()


def _get(section, key, parse=int, fallback=_MISSING):
    """section[key] read by parse (int, str, _ints, _bool, ...).

    An absent key gives fallback, or a ConfigError if there is none; a value
    parse rejects is a ConfigError naming the section and the key.
    """
    text = section.get(key)
    if text is None:
        if fallback is _MISSING:
            raise ConfigError(f"[{section.name}] is missing the {key!r} key")
        return fallback
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"[{section.name}] {key} = {text!r} is malformed: {e}") from None


def load_config(path):
    cfg = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cfg.read_file(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except configparser.Error as e:
        raise ConfigError(f"malformed config {path}: {e}") from None
    return cfg


def group_from_config(cfg):
    """The configured group.  One element's products with every generator
    and inverse, 2g x k coordinates, are the least slice cayley.ball_levels
    builds, so a group where they pass SLICE is refused from its rank or
    size alone, before its generators are built."""
    if "group" not in cfg:
        raise ConfigError("config needs a [group] section")
    sec = cfg["group"]
    kind = _get(sec, "kind", str)
    if kind in FACTOR_KINDS:
        key = "rank" if kind == "free_abelian" else "size"
        factors = [(kind, _get(sec, key))]
    elif kind == "direct_product":
        key = "factors"
        factors = _get(sec, key, _factors)
        if not factors:
            raise ConfigError("direct_product needs at least one factor")
    else:
        raise ConfigError(f"unknown group kind {kind!r}")
    g, k = map(sum, zip(*(FACTOR_KINDS[name][1](max(n, 1)) for name, n in factors)))
    if 2 * g * k > SLICE:
        raise ResourceCapError(f"[group] {key}: one element times every generator and "
                               f"inverse passes the {SLICE} coordinates of a slice")
    specs = [FACTOR_KINDS[name][0](n) for name, n in factors]
    return direct_product(*specs) if kind == "direct_product" else specs[0]


def filtration_from_config(cfg, spec):
    if "filtration" not in cfg:
        raise ConfigError("config needs a [filtration] section")
    sec = cfg["filtration"]
    if sec.get("moduli"):
        moduli = _get(sec, "moduli", _ints)
    elif sec.get("rule") == "powers":
        base = _get(sec, "base")
        count = _get(sec, "count")
        if base < 2 or count < 1:
            raise ConfigError(f"powers rule needs base >= 2 and count >= 1, "
                              f"got base={base} count={count}")
        if count > 63 or base ** count >= 2 ** 63:
            raise ConfigError(f"[filtration] count = {count} with base = {base} puts "
                              "the largest modulus at or past 2 ** 63")
        moduli = [base ** i for i in range(1, count + 1)]
    else:
        raise ConfigError("[filtration] needs either moduli or rule = powers")
    return Filtration(spec, tuple(moduli), _get(sec, "nested", _bool, True))


def _box(args, cfg):
    """The configured group and the box space of its filtration."""
    spec = group_from_config(cfg)
    return spec, build_box_space(filtration_from_config(cfg, spec), threads=args.threads,
                                 vertex_cap=args.vertex_cap)


def _ball_radius(sec, key, state_cap):
    """[task] key (default 8), a ball radius r.  Every supported group is
    torsion-free, so for a generator g the powers g^k, |k| <= r, are 2r + 1
    distinct elements of B(e, r): r >= 1 with 2r + 1 > state_cap is refused
    before any sphere is built."""
    r = _get(sec, key, int, 8)
    if r >= 1 and 2 * r + 1 > state_cap:
        raise ResourceCapError(f"[task] {key} = {r} names a ball past state_cap = {state_cap}")
    return r


def growth_from_config(sec, spec, state_cap):
    """Explicit growth_c and growth_d if configured, else a fitted bound;
    one of the two alone is refused."""
    c = _get(sec, "growth_c", Fraction, None)
    d = _get(sec, "growth_d", int, None)
    if (c is None) != (d is None):
        raise ConfigError(f"[task] {'growth_d' if d is None else 'growth_c'} is missing: "
                          "growth_c and growth_d give an explicit growth bound together")
    if c is not None:
        return GrowthBound(C=c, d=d, validated_range=(1, 0))
    return fit_growth(growth_profile(spec, _ball_radius(sec, "growth_r_max", state_cap),
                                     state_cap))


# --- witness serialization ----------------------------------------------------

def _witness(kind, spec, moduli, nested, **fields):
    """A witness document; its covers stay Covers until write_json renders them."""
    return {"kind": kind, "group": spec.describe(), "moduli": list(moduli),
            "nested": nested, **fields}


def write_json(fh, value, depth=0):
    """json.dump(value, fh, indent=2, sort_keys=True) for a value at the
    given nesting depth, except that a Cover is written as its families,
    rendered from its arrays a few thousand sets at a time, so the whole
    document is never built in memory."""
    pad = "\n" + "  " * depth
    if isinstance(value, Cover):
        fh.writelines(_families_text(value, depth))
    elif isinstance(value, dict) and value:
        for i, key in enumerate(sorted(value)):
            fh.write(("," if i else "{") + pad + "  " + json.dumps(key) + ": ")
            write_json(fh, value[key], depth + 1)
        fh.write(pad + "}")
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            fh.write(("," if i else "[") + pad + "  ")
            write_json(fh, item, depth + 1)
        fh.write(pad + "]")
    else:
        fh.write(json.dumps(value, indent=2).replace("\n", pad))


# The writer renders at most this many sets, and (past one set) ids, at a time
BLOCK_SETS, BLOCK_IDS = 4096, 2 ** 14


def _families_text(cover, depth):
    """Pieces of the json.dump(indent=2, sort_keys=True) text, at the given
    depth, of a cover's families: lists of {center, label, parts, radius} sets."""
    p = ["\n" + "  " * (depth + k) for k in range(7)]
    first, off = cover.set_parts().tolist(), cover.offsets.tolist()
    starts = [off[k] for k in first]    # the first id of each set
    comps = cover.part_comp.tolist()

    def block(texts, k):
        """The JSON list, at depth k, of the given item texts."""
        return f"[{p[k + 1]}{(',' + p[k + 1]).join(texts)}{p[k]}]" if texts else "[]"

    def scalar(value):
        return "null" if value is None else json.dumps(value, indent=2).replace("\n", p[3])

    def sets(lo, hi):
        """The texts of the sets lo, ..., hi - 1."""
        at = off[first[lo]]
        ids = list(map(str, cover.ids[at:off[first[hi]]].tolist()))
        parts = [f"[{p[5]}{comps[k]},{p[5]}{block(ids[off[k] - at:off[k + 1] - at], 5)}{p[4]}]"
                 for k in range(first[lo], first[hi])]
        return [f"{{{p[3]}\"center\": {scalar(cover.centers.get(i))},"
                f"{p[3]}\"label\": {json.encoder.encode_basestring_ascii(cover.labels[i])},"
                f"{p[3]}\"parts\": {block(parts[first[i] - first[lo]:first[i + 1] - first[lo]], 3)},"
                f"{p[3]}\"radius\": {scalar(cover.radii.get(i))}{p[2]}}}" for i in range(lo, hi)]

    fams = cover.set_family.searchsorted(range(cover.n_families + 1)).tolist()
    for j, (lo, hi) in enumerate(zip(fams, fams[1:])):
        yield ("," if j else "[") + p[1] + ("[" + p[2] if hi > lo else "[]")
        a = lo
        while a < hi:
            b = bisect_right(starts, starts[a] + BLOCK_IDS, a, hi + 1) - 1
            b = min(hi, a + BLOCK_SETS, max(a + 1, b))
            yield ("," + p[2] if a > lo else "") + ("," + p[2]).join(sets(a, b))
            a = b
        yield p[1] + "]" if hi > lo else ""
    yield p[0] + "]" if cover.n_families else "[]"


def _check_witness(ok, what):
    if not ok:
        raise ConfigError(f"malformed witness: {what}")


def _int_list(value):
    return type(value) is list and set(map(type, value)) <= {int}


def _set_ok(s):
    """Whether one witness set keeps to the schema."""
    return (type(s) is dict and type(s.get("label")) is str and type(s.get("parts")) is list
            and all(type(p) is list and len(p) == 2 and type(p[0]) is int
                    and _int_list(p[1]) for p in s["parts"])
            and (s.get("center") is None or _int_list(s["center"]))
            and (s.get("radius") is None or type(s["radius"]) is int))


SET_KEYS = frozenset({"label", "parts", "center", "radius"})


def _packed_set(s, first, end):
    """A set as read_witness keeps it: a tuple, which no JSON text spells,
    of its label, the range [first, end) of its parts in the buffers, its
    center as a tuple or None, and its radius or None."""
    center = s.get("center")
    return s["label"], first, end, None if center is None else tuple(center), s.get("radius")


def read_witness(fh):
    """json.load(fh), with every set that keeps to the schema packed as the
    parse goes: its parts are appended to three flat int64 buffers
    (component, length, vertex ids), so the document never holds a Python
    int per vertex id, and the set becomes a _packed_set tuple, so no dict
    per set outlives the parse.  Every other object is left as it was: a
    row, the top level, and a set with another key or an integer past 64
    bits, which cover_from_json refuses."""
    buffers = comps, lengths, ids = array("q"), array("q"), array("q")

    def pack(d):
        if not (d.keys() <= SET_KEYS and _set_ok(d)):
            return d
        first, at = len(comps), len(ids)
        try:
            for c, vs in d["parts"]:
                comps.append(c)
                lengths.append(len(vs))
                ids.extend(vs)
        except OverflowError:
            del comps[first:], lengths[first:], ids[at:]
            return d
        return _packed_set(d, first, len(comps))

    return json.load(fh, object_hook=pack), buffers


def cover_from_json(box, data, buffers):
    """The cover a row of a read_witness document describes, its parts
    taken from the buffers that read_witness packed them into; schema
    errors, and integers past 64 bits, are ConfigError."""
    families = data.get("families")
    _check_witness(type(families) is list and all(type(f) is list for f in families),
                   "'families' must be a list of lists of sets")
    sets = [s for family in families for s in family]
    loose = [s for s in sets if type(s) is not tuple]
    _check_witness(all(type(s) is dict and s.keys() <= SET_KEYS and _set_ok(s) for s in loose),
                   "each set needs a string 'label', 'parts' as "
                   "[component, [vertex ids]] of integers, and an "
                   "integer list 'center' and integer 'radius' or null, and no other key")
    if loose:
        # read_witness packs every set that keeps to the schema and fits in 64 bits
        raise ConfigError("malformed witness: a component index or vertex id "
                          "does not fit in 64 bits")
    labels, first, end, centers, radii = zip(*sets) if sets else ((),) * 5
    comps, lengths, ids = (np.frombuffer(b, dtype=np.int64) for b in buffers)
    first, end = np.array(first, dtype=np.int64), np.array(end, dtype=np.int64)
    parts = _ranges(first, end)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    return Cover.from_arrays(
        box, len(families), np.repeat(np.arange(len(families)), list(map(len, families))),
        labels, np.repeat(np.arange(len(sets)), end - first),
        comps[parts], lengths[parts], ids[_ranges(offsets[parts], offsets[parts + 1])],
        {i: c for i, c in enumerate(centers) if c is not None},
        {i: r for i, r in enumerate(radii) if r is not None})


def verify_witness(args, cfg):
    try:
        with open(args.verify_witness) as fh:
            data, buffers = read_witness(fh)
    # ValueError: bad JSON, or past 4,300 digits; RecursionError: nested too deep
    except (OSError, ValueError, RecursionError) as e:
        raise ConfigError(f"cannot read witness {args.verify_witness}: {e}") from None
    _check_witness(isinstance(data, dict), "the top level must be an object")
    spec = group_from_config(cfg)
    if data.get("group") != spec.describe():
        raise ConfigError(f"witness group {data.get('group')!r} does not match "
                          f"the configured group {spec.describe()!r}")
    moduli = data.get("moduli")
    nested = data.get("nested", True)
    _check_witness(_int_list(moduli), "'moduli' must be a list of integers")
    _check_witness(isinstance(nested, bool), "'nested' must be true or false")
    box = build_box_space(Filtration(spec, tuple(moduli), nested),
                          vertex_cap=args.vertex_cap, threads=args.threads)
    rows = data.get("rows") if data.get("kind") == "profile-witness" else [data]
    # no rows would verify nothing; the writer never emits such a witness
    _check_witness(isinstance(rows, list) and rows and all(isinstance(r, dict) for r in rows),
                   "'rows' must be a non-empty list of objects")
    checked = []
    for row in rows:
        R, S = row.get("R"), row.get("S")
        check_disjoint = row.get("check_disjoint", True)
        _check_witness(type(R) is int, "'R' must be an integer")
        _check_witness(S is None or type(S) is int, "'S' must be an integer or null")
        _check_witness(isinstance(check_disjoint, bool),
                       "'check_disjoint' must be true or false")
        cover = cover_from_json(box, row, buffers)
        report = verify_cover(cover, R, S, check_disjoint=check_disjoint)
        if not report.ok:
            raise VerificationError(
                f"witness failed verification at R={R}: "
                f"is_cover={report.is_cover} "
                f"oversized={report.oversized_witness} "
                f"close_pairs={report.close_pair_witnesses[:3]}")
        checked.append({"R": R, "S": S, "r_multiplicity": report.r_multiplicity})
    return None, {"task": "verify", "witness": str(args.verify_witness),
                  "verified": True, "rows": checked}, None


# --- tasks ---------------------------------------------------------------------

def task_growth(args, cfg, sec):
    spec = group_from_config(cfg)
    r_max = _ball_radius(sec, "r_max", args.state_cap)
    profile = growth_profile(spec, r_max, args.state_cap)
    d = _get(sec, "growth_d", int, None)
    bound = fit_growth(profile, d=d)
    rows = [["r", "ball_size"]]
    rows += [[str(r), str(sz)] for r, sz in enumerate(profile.sizes)]
    summary = {
        "task": "growth", "group": spec.describe(), "r_max": r_max,
        "hirsch_length": hirsch_length(spec),
        "sizes": list(profile.sizes),
        "loglog_slope": round(bound.slope, 6),
        "bound": {"C": str(bound.C), "d": bound.d,
                  "validated_range": list(bound.validated_range)},
    }
    return rows, summary, None


def _component_rows(box):
    rows = [["component", "modulus", "order", "degree", "diameter"]]
    for i, g in enumerate(box.components):
        rows.append([str(i), str(g.modulus), str(g.n_vertices),
                     str(g.degree), str(g.diameter)])
    return rows


def task_boxspace(args, cfg, sec):
    """The quotient and boxspace tasks: the same box and rows; the summary
    keys differ by task name."""
    spec, box = _box(args, cfg)
    summary = {"task": sec["name"], "group": spec.describe(),
               "moduli": list(box.moduli), "diameters": list(box.diameters)}
    if sec["name"] == "quotient":
        summary["orders"] = [g.n_vertices for g in box.components]
    else:
        summary.update(component_count=box.component_count, n_points=box.n_points,
                       hirsch_length=hirsch_length(spec))
    return _component_rows(box), summary, None


def task_isoradius(args, cfg, sec):
    spec, box = _box(args, cfg)
    profile = isometry_profile(box, budget=args.state_cap)
    effective = profile.effective_radii
    rows = [["component", "modulus", "isometry_radius", "exact", "effective_radius"]]
    for i, r in enumerate(profile.radii):
        rows.append([str(i), str(box.moduli[i]), str(r.radius),
                     str(r.exact).lower(), str(effective[i])])
    thresholds = {str(k): profile.threshold(k) for k in _get(sec, "k_list", _ints, [])}
    summary = {
        "task": "isoradius", "group": spec.describe(),
        "moduli": list(box.moduli),
        "radii": [r.radius for r in profile.radii],
        "exact": [r.exact for r in profile.radii],
        "effective_radii": list(effective),
        "thresholds": thresholds,
    }
    return rows, summary, None


def _cover_rows(cover):
    rows = [["family", "label", "center_component", "center_vertex",
             "radius", "n_points"]]
    sizes = cover.set_sizes().tolist()
    for i, (fi, label) in enumerate(zip(cover.set_family.tolist(), cover.labels)):
        ci, cv = cover.centers.get(i, ("", ""))
        radius = cover.radii.get(i)
        rows.append([str(fi), label, str(ci), str(cv),
                     "" if radius is None else str(radius), str(sizes[i])])
    return rows


def _packing_cover(args, sec, spec, box):
    """[task] r and cover_prop41 at it.  Its summary and witness report the
    diameter budget S_0 = 4^(m+1) r, and str() prints at most 4,300 digits,
    so an S_0 past 10^4300 is refused before any cover is built."""
    R = _get(sec, "r")
    growth = growth_from_config(sec, spec, args.state_cap)
    if CoverParams.from_growth(R, growth).S_0 >= 10 ** 4300:
        raise ConfigError("[task] r and the growth bound give a diameter budget "
                          "S_0 = 4^(m+1) r of more than 4,300 digits")
    return R, cover_prop41(box, R, growth, threads=args.threads)


def task_cover(args, cfg, sec):
    spec, box = _box(args, cfg)
    _, (cover, report) = _packing_cover(args, sec, spec, box)
    summary = {
        "task": "cover", "group": spec.describe(), "moduli": list(box.moduli),
        "R": report.R, "S": report.S,
        "r_multiplicity": report.r_multiplicity,
        "K": report.params.K, "m": report.params.m, "S_0": report.params.S_0,
        "n_sets": cover.n_sets(),
        "max_set_diameter": report.max_set_diameter,
        "diameters_exact": report.diameters_exact,
        "doubling_radii": list(report.doubling_radii),
        "packing_counts": list(report.packing_counts),
        "ok": report.ok,
    }
    witness = _witness("cover-witness", spec, box.moduli, box.filtration.nested, R=report.R,
                       S=report.S, check_disjoint=False, families=cover)
    return _cover_rows(cover), summary, witness


def task_families(args, cfg, sec):
    spec, box = _box(args, cfg)
    R, (base, base_report) = _packing_cover(args, sec, spec, box)
    cover, report = families_from_multiplicity_cover(base, R)
    summary = {
        "task": "families", "group": spec.describe(), "moduli": list(box.moduli),
        "R": R, "S": base_report.S,
        "n_families": cover.n_families,
        "multiplicity_bound": base_report.r_multiplicity,
        "sets_per_family": np.bincount(cover.set_family, minlength=cover.n_families).tolist(),
        "family_min_distances": list(report.family_min_distances),
        "ok": report.ok,
    }
    witness = _witness("cover-witness", spec, box.moduli, box.filtration.nested, R=R,
                       S=base_report.S, check_disjoint=True, families=cover)
    return _cover_rows(cover), summary, witness


def task_rsdim(args, cfg, sec):
    source = sec.get("source", fallback="component")
    R = _get(sec, "r")
    S = _get(sec, "s")
    method = sec.get("method", fallback="exact")
    witness = None
    if source == "random":
        import random as _random
        points = _get(sec, "points", int, 8)
        max_distance = _get(sec, "max_distance", int, 6)
        space = random_metric_space(_random.Random(args.seed), points, max_distance)
        label = f"random(points={points}, max_distance={max_distance}, seed={args.seed})"
    elif source == "component":
        spec = group_from_config(cfg)
        filtration = filtration_from_config(cfg, spec)
        index = _get(sec, "component", int, 0)
        quotients = filtration.quotients()
        if not (0 <= index < len(quotients)):
            raise ConfigError(f"component index {index} out of range")
        space = build_quotient_cayley(quotients[index], vertex_cap=args.vertex_cap)
        label = f"{spec.describe()} mod {space.modulus}"
    else:
        raise ConfigError(f"unknown rsdim source {source!r}")
    result = rs_dim(space, R, S, method)
    rows = [["point", "family"]]
    if result.coloring is not None:
        for v in range(space.n_vertices):
            rows.append([str(v), str(result.coloring[v])])
    summary = {
        "task": "rsdim", "space": label, "R": R, "S": S, "method": result.method,
        "n": result.n, "exceeded_cap": result.exceeded_cap,
        "n_points": space.n_vertices,
    }
    if result.cover is not None and source == "component":
        # one modulus is always a filtration
        witness = _witness("cover-witness", spec, [space.modulus], True, R=R, S=S,
                           check_disjoint=True, families=result.cover)
    return rows, summary, witness


def task_profile(args, cfg, sec):
    spec, box = _box(args, cfg)
    r_list = _get(sec, "r_list", _ints)
    S_cap = _get(sec, "s_cap")
    mode = sec.get("mode", fallback="structured")
    growth = None
    if mode == "prop41":
        growth = growth_from_config(sec, spec, args.state_cap)
    table = asdim_profile(box, r_list, S_cap=S_cap, mode=mode, growth=growth,
                          threads=args.threads)
    rows = [list(r) for r in table.as_csv_rows()]
    summary = {
        "task": "profile", "group": spec.describe(), "moduli": list(box.moduli),
        "mode": mode, "S_cap": S_cap,
        "hirsch_length": hirsch_length(spec),
        "rows": [{"R": r.R, "s_achieved": r.s_achieved, "n_achieved": r.n_achieved,
                  "note": r.note} for r in table.rows],
    }
    witness_rows = [{"R": r.R, "S": r.s_achieved, "check_disjoint": r.mode != "prop41",
                     "families": r.cover} for r in table.rows if r.cover is not None]
    witness = (_witness("profile-witness", spec, box.moduli, box.filtration.nested,
                        rows=witness_rows) if witness_rows else None)
    return rows, summary, witness


def task_transfer(args, cfg, sec):
    spec = group_from_config(cfg)
    if spec.describe() != free_abelian(1).describe():
        raise ConfigError("the built-in striped inputs need the rank-1 free "
                          "abelian group")
    R = _get(sec, "r", int, 2)
    S = _get(sec, "s", int, 3)
    r0 = _get(sec, "r0")
    radii = _get(sec, "radii", _ints)
    stripe = S + 1
    if stripe < max(R, 1):
        raise ConfigError(f"striped inputs need S + 1 >= max(R, 1), got S={S} R={R}")
    if any(2 * r + 1 > args.state_cap for r in radii):
        raise ResourceCapError(f"[task] radii: a striped input passes state_cap = {args.state_cap}")
    inputs = [(r, {(x,): (x // stripe) % 2 for x in range(-r, r + 1)}) for r in radii]
    result = diagonal_transfer(spec, inputs, R=R, S=S, r0=r0, n=1,
                               state_cap=args.state_cap)
    items = sorted(result.coloring.items())
    rows = [["coords", "family"]]
    rows += [[";".join(str(c) for c in v), str(fam)] for v, fam in items]
    summary = {
        "task": "transfer", "group": spec.describe(),
        "R": R, "S": S, "r0": r0,
        "input_radii": sorted(radii),
        "surviving_radii": list(result.surviving_radii),
        "discarded_radii": list(result.discarded_radii),
        "n_points": len(result.coloring),
    }
    return rows, summary, None


TASK_FUNCS = {
    "growth": task_growth,
    "quotient": task_boxspace,
    "boxspace": task_boxspace,
    "isoradius": task_isoradius,
    "cover": task_cover,
    "families": task_families,
    "rsdim": task_rsdim,
    "profile": task_profile,
    "transfer": task_transfer,
}


# --- entry point -----------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="boxdim",
        description="Box spaces of nilpotent groups: covers, dimension "
                    "profiles, and certified witnesses.")
    parser.add_argument("--config", required=True, help="INI run description")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for component builds and solves")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized spaces")
    parser.add_argument("--export-witness", default=None, metavar="PATH",
                        help="write the verified witness JSON here")
    parser.add_argument("--verify-witness", default=None, metavar="PATH",
                        help="re-verify a previously exported witness and exit")
    return parser


def run(args):
    cfg = load_config(args.config)
    check_int("--threads", args.threads, 1)
    args.state_cap = 10 ** 7
    args.vertex_cap = 10 ** 6
    if "limits" in cfg:
        args.state_cap = _get(cfg["limits"], "state_cap", int, args.state_cap)
        args.vertex_cap = _get(cfg["limits"], "vertex_cap", int, args.vertex_cap)
    if args.vertex_cap > np.iinfo(np.int32).max:
        raise ConfigError("[limits] vertex_cap passes 2**31 - 1: vertex ids are int32")

    if args.verify_witness:
        name = "verify"
    else:
        if "task" not in cfg:
            raise ConfigError("config needs a [task] section")
        name = _get(cfg["task"], "name", str)
        if name not in TASK_FUNCS:
            raise ConfigError(f"unknown task {name!r}; expected one of {tuple(TASK_FUNCS)}")
    _check_keys(cfg)
    csv_rows, summary, witness = (verify_witness(args, cfg) if args.verify_witness
                                  else TASK_FUNCS[name](args, cfg, cfg["task"]))

    out = cfg["output"] if "output" in cfg else {}
    written = []
    try:
        outdir = Path(out.get("dir", "."))
        outdir.mkdir(parents=True, exist_ok=True)
        if csv_rows is not None:
            csv_path = outdir / out.get("csv", f"{name}.csv")
            with open(csv_path, "w", newline="") as fh:
                import csv as _csv
                _csv.writer(fh, lineterminator="\n").writerows(csv_rows)
            written.append(str(csv_path))
        summary_path = outdir / out.get("summary", "summary.json")
        with open(summary_path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(str(summary_path))
        if witness is not None and args.export_witness:
            with open(args.export_witness, "w") as fh:
                write_json(fh, witness)
                fh.write("\n")
            written.append(args.export_witness)
    except OSError as e:        # say, an empty csv or summary name: the directory itself
        raise ConfigError(f"cannot write the outputs: {e}") from None
    print("wrote " + ", ".join(written))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except (ConfigError, GrowthBoundError, InsufficientInputError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except (ResourceCapError, MemoryError) as e:
        print(f"resource cap exceeded: {str(e) or 'out of memory'}", file=sys.stderr)
        return 3
    except VerificationError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return 4
    except BoxdimError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
