"""The witness writer against json.dump, and the witness reader back.

cli.write_json renders each Cover of a witness straight from its arrays;
here every exporting task's witness is also serialised the way the CLI did
before the writer (CoverSet views through json.dump), and the two texts
must agree byte for byte.
"""
import hashlib
import io
import json
import sys
import tracemalloc

import numpy as np
import pytest

from boxdim import cli
from boxdim.boxspace import build_box_space
from boxdim.covers import Cover, CoverSet
from boxdim.groups import Filtration, free_abelian


def old_families_json(cover):
    """A cover's families as the CLI serialised them before the writer."""
    return [[{"label": s.label,
              "center": list(s.center) if s.center is not None else None,
              "radius": s.radius,
              "parts": [[ci, [int(v) for v in ids]] for ci, ids in s.parts]}
             for s in family]
            for family in cover.families]


def as_plain(value):
    """value with every Cover replaced by its old families JSON."""
    if isinstance(value, Cover):
        return old_families_json(value)
    if isinstance(value, dict):
        return {k: as_plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [as_plain(v) for v in value]
    return value


def written(value):
    buf = io.StringIO()
    cli.write_json(buf, value)
    return buf.getvalue() + "\n"


def dumped(value):
    buf = io.StringIO()
    json.dump(as_plain(value), buf, indent=2, sort_keys=True)
    return buf.getvalue() + "\n"


def task_output(tmp_path, group, filtration, task):
    """(rows, summary, witness) of one task, run in-process as run() does."""
    path = tmp_path / "run.ini"
    path.write_text(f"[group]\n{group}\n\n[filtration]\n{filtration}\n\n[task]\n{task}\n")
    args = cli.build_parser().parse_args(["--config", str(path)])
    args.state_cap, args.vertex_cap = 10 ** 7, 10 ** 6
    cfg = cli.load_config(path)
    return cli.TASK_FUNCS[cfg["task"]["name"]](args, cfg, cfg["task"])


Z = "kind = free_abelian\nrank = 1"
Z2 = "kind = free_abelian\nrank = 2"
UT3 = "kind = unitriangular\nsize = 3"
PROP41 = "r = 2\ngrowth_c = 3\ngrowth_d = 1"

# every task that exports a witness, each profile mode, and both filtration kinds
EXPORTS = {
    "cover Z": (Z, "moduli = 4 8 16 32", f"name = cover\n{PROP41}"),
    "cover UT3": (UT3, "moduli = 2 4 8", "name = cover\nr = 2\ngrowth_r_max = 6"),
    "families Z": (Z, "moduli = 4 8 16 32", f"name = families\n{PROP41}"),
    "families UT3": (UT3, "moduli = 2 4 8", "name = families\nr = 2\ngrowth_r_max = 6"),
    "rsdim component": (Z, "moduli = 12 24",
                        "name = rsdim\nsource = component\nr = 2\ns = 3\nmethod = exact"),
    "profile structured": (Z2, "moduli = 4 16 64",
                           "name = profile\nr_list = 2 4\ns_cap = 32\nmode = structured"),
    "profile greedy": (UT3, "moduli = 2 4",
                       "name = profile\nr_list = 1 2\ns_cap = 8\nmode = greedy"),
    "profile prop41": (Z, "moduli = 4 8 16 32",
                       "name = profile\nr_list = 2 4\ns_cap = 64\nmode = prop41\n"
                       "growth_c = 3\ngrowth_d = 1"),
    "cover not nested": (Z, "moduli = 6 9 15\nnested = false", f"name = cover\n{PROP41}"),
    "profile not nested": (Z, "moduli = 6 9 15\nnested = false",
                           "name = profile\nr_list = 2\ns_cap = 16\nmode = structured"),
}


def witness_covers(witness):
    """The covers of a witness, one per row."""
    if witness["kind"] == "profile-witness":
        return [row["families"] for row in witness["rows"]]
    return [witness["families"]]


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_writer_matches_json_dump(tmp_path, name):
    _, _, witness = task_output(tmp_path, *EXPORTS[name])
    assert witness is not None
    text = written(witness)
    assert text == dumped(witness), name
    if name.startswith("cover"):
        # ball sets carry a center and a radius
        sets = [s for fam in json.loads(text)["families"] for s in fam]
        assert any(s["center"] is not None and s["radius"] is not None for s in sets)


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_witness_reads_back_to_the_same_families(tmp_path, name):
    _, _, witness = task_output(tmp_path, *EXPORTS[name])
    data, buffers = cli.read_witness(io.StringIO(written(witness)))
    rows = data["rows"] if data["kind"] == "profile-witness" else [data]
    covers = witness_covers(witness)
    assert len(rows) == len(covers) > 0
    for row, cover in zip(rows, covers):
        back = cli.cover_from_json(cover.space, row, buffers)
        assert back.families == cover.families
        assert back.n_families == cover.n_families


def test_row_parts_are_views_of_the_buffers(tmp_path):
    # a row's sets are packed one after another, so its parts are one run
    # of the buffers, taken as slices, not gathered into copies
    _, _, witness = task_output(tmp_path, *EXPORTS["profile structured"])
    data, buffers = cli.read_witness(io.StringIO(written(witness)))
    comps, lengths, ids = (np.frombuffer(b, dtype=np.int64) for b in buffers)
    for row, cover in zip(data["rows"], witness_covers(witness)):
        back = cli.cover_from_json(cover.space, row, buffers)
        assert np.shares_memory(back.ids, ids) and np.shares_memory(back.part_comp, comps)
        assert back.families == cover.families


STRAY = '{"label": "stray", "parts": [[0, [0, 1, 2]]], "center": null, "radius": null}'


def verified(tmp_path, text):
    """The summary of --verify-witness on a witness text, run in-process
    on the run.ini task_output wrote, without the witness path."""
    wit = tmp_path / "variant.json"
    wit.write_text(text)
    ini = tmp_path / "run.ini"
    args = cli.build_parser().parse_args(["--config", str(ini), "--verify-witness", str(wit)])
    args.vertex_cap = 10 ** 6
    summary = cli.verify_witness(args, cli.load_config(ini))[1]
    del summary["witness"]
    return summary


@pytest.mark.parametrize("name", ["cover Z", "profile structured"])
def test_sets_outside_a_row_s_families_are_not_read(tmp_path, name):
    # read_witness packs every set-shaped object into the buffers, also one
    # under a row's extra key and one under a "families" key that a later
    # one overwrites; the row's own sets are still read, and only them
    _, _, witness = task_output(tmp_path, *EXPORTS[name])
    text = written(witness)
    want = verified(tmp_path, text)
    assert want["verified"] and text.count('"families": [') >= 1
    extra = text.replace('"families": [', f'"extra": {STRAY}, "families": [')
    extra = extra.replace('"group": ', f'"late": {STRAY}, "group": ', 1)
    repeated = text.replace('"families": [', f'"families": [[{STRAY}]], "families": [')
    for variant in (extra, repeated):
        assert verified(tmp_path, variant) == want


def test_reader_traces_less_than_json_load(tmp_path):
    # read_witness packs the ids into int64 buffers as the parse goes, so
    # it never holds an int object and a list slot per id; its peak is the
    # read of the text.  On this 342 kB witness the traced peaks are 0.65
    # and 0.94 MiB; on the benchmark's plane_profile witness, 18.5 and
    # 25.7 MiB
    _, _, witness = task_output(tmp_path, Z2, "moduli = 64",
                                "name = profile\nr_list = 2\ns_cap = 8\nmode = structured")
    path = tmp_path / "wit.json"
    path.write_text(written(witness))

    def traced_peak(read):
        with open(path) as fh:
            tracemalloc.start()
            try:
                read(fh)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    assert traced_peak(cli.read_witness) <= 0.8 * traced_peak(json.load)


def test_read_document_keeps_no_dict_per_set(tmp_path):
    # a set with no other keys is kept as a tuple of its label, part range,
    # center and radius: the document retains about 200 bytes per set
    # beyond the id buffers on this 4,096-set witness, where one dict per
    # set retained about 360
    _, _, witness = task_output(tmp_path, Z2, "moduli = 128",
                                "name = profile\nr_list = 2\ns_cap = 8\nmode = structured")
    fh = io.StringIO(written(witness))
    tracemalloc.start()
    try:
        data, buffers = cli.read_witness(fh)
        retained = tracemalloc.get_traced_memory()[0] - sum(map(sys.getsizeof, buffers))
    finally:
        tracemalloc.stop()
    n_sets = sum(len(f) for row in data["rows"] for f in row["families"])
    assert n_sets >= 4000
    assert retained <= 250 * n_sets


def test_writer_edge_cases_match_json_dump():
    # empty families, a set without parts, an empty part, centers of any
    # length, labels that need escaping, and values at every depth
    box = build_box_space(Filtration(free_abelian(1), (4, 8)))
    fams = ((),
            (CoverSet('q"uote\\é\n', ((0, (0, 1)), (1, ())), center=(1, 2, 3), radius=7),
             CoverSet("none", ()),
             CoverSet("c", ((1, (5,)),), center=())),
            ())
    cover = Cover(box, fams)
    assert cover.families == fams
    witness = {"rows": [{"families": cover, "R": 1}, {"families": Cover(box, ())}],
               "kind": "x", "empty": {}, "nil": [], "f": 1.5, "t": True, "n": None,
               "nested": {"b": [1, [2, {}]], "a": "é"}}
    assert written(witness) == dumped(witness)
    for top in (cover, Cover(box, ()), Cover(box, ((), ()))):
        assert written(top) == dumped(top)


class DigestSink:
    """A text file that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())

    def writelines(self, texts):
        for text in texts:
            self.write(text)


def test_writer_renders_huge_sets_a_few_ids_at_a_time():
    # one family of four sets of 2^16 ids (one in two parts, one a ball),
    # then 3,000 small sets, more ids than one block takes.  The writer
    # renders one huge set at a time (traced peak 9.4 MiB), where blocks of
    # 4,096 sets rendered the first family's 2^18 ids at once (27.6 MiB)
    n = 2 ** 16
    box = build_box_space(Filtration(free_abelian(1), (n,)))
    huge = (CoverSet("a", ((0, tuple(range(n))),)),
            CoverSet("b", ((0, tuple(range(0, n, 2))), (0, tuple(range(1, n, 2))))),
            CoverSet("c", ((0, tuple(range(n))),), center=(5,), radius=3),
            CoverSet("d", ((0, tuple(range(n - 1, -1, -1))),)))
    small = tuple(CoverSet(f"s{i}", ((0, tuple(range(7 * i, 7 * i + 7))),)) for i in range(3000))
    witness = {"families": Cover(box, (huge, small)), "R": 1}
    sink = DigestSink()
    tracemalloc.start()
    try:
        cli.write_json(sink, witness)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.sha.hexdigest() == hashlib.sha256(dumped(witness)[:-1].encode()).hexdigest()
    assert peak < 12 * 2 ** 20
