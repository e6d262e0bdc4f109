"""Runtime tracing of pqc's layers, installed from outside the package.

Nothing under ``src/`` knows about this module.  ``install`` replaces
public functions and methods of ``pqc.codec``, ``pqc.morton``,
``pqc.store``, ``pqc.qtree``, ``pqc.geom``, ``pqc.ingest``, ``pqc.refine``
and ``pqc.cli`` with wrappers, in every ``pqc`` module that imported the
name, and returns an undo function that puts the originals back.

Two kinds of wrapper exist:

* a span records name, start, end, parent span and op id for every call,
  in flat arrays that are written out once the run ends;
* a leaf (the kernel calls, ``interleave``, ``successor_rank``,
  ``clip_halfplane``, line parsing) is called up to millions of times, so
  it only adds a call count and total time under its parent span's name.

Self time is a call's duration minus the time of the wrapped calls nested
in it, spans and leaves alike.  The kernel call counters (``KernelTally``)
are separate: they only add integers, and the benchmark installs them in
untraced runs too so that every result carries the kernel's point and bit
counts.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter


def _patch_everywhere(original, replacement, undo):
    """Rebind every ``pqc`` module attribute that is ``original``."""
    for name, mod in list(sys.modules.items()):
        if not (name == "pqc" or name.startswith("pqc.")) or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def _patch_method(cls, attr, make, undo):
    """Replace ``cls.attr`` by ``make(function)``, keeping classmethods."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))
    undo.append((cls, attr, raw))


def _undo_all(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()


class KernelTally:
    """Point and bit counts of the record kernel, by integer addition only."""

    def __init__(self):
        self.decode_points = 0
        self.decode_bits = 0
        self.encode_points = 0
        self.encode_bits = 0

    def snapshot(self) -> dict:
        return dict(vars(self))

    def install(self):
        from pqc import codec

        undo = []
        decode, encode = codec.decode_records, codec.encode_records

        def decode_records(reader, *rest):
            start = reader.tell()
            coords, heights = decode(reader, *rest)
            self.decode_points += len(coords)
            self.decode_bits += reader.tell() - start
            return coords, heights

        def encode_records(writer, prev, prev_h, coords_seq, *rest):
            bits = encode(writer, prev, prev_h, coords_seq, *rest)
            self.encode_points += len(coords_seq)
            self.encode_bits += bits
            return bits

        _patch_everywhere(decode, decode_records, undo)
        _patch_everywhere(encode, encode_records, undo)
        return lambda: _undo_all(undo)


class Tracer:
    """In-memory spans plus per-name call counts and times."""

    def __init__(self):
        self.enabled = False
        self.op_id = 0
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_name = array("l")
        self.span_op = array("q")
        # One frame per active wrapped call: [enclosing span index, child seconds].
        self._stack: list[list] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.under: dict[tuple[int, int], int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.pass_s: list[float] = []
        self.counters_seen: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def wrap(self, name: str, fn, leaf: bool = False):
        nid = self.name_id(name)
        stack = self._stack
        calls, self_s, under = self.calls, self.self_s, self.under
        starts, ends, parents, names, ops = (
            self.span_start,
            self.span_end,
            self.span_parent,
            self.span_name,
            self.span_op,
        )
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            if leaf:
                frame = [parent, 0.0]
            else:
                frame = [len(starts), 0.0]
                starts.append(0.0)
                ends.append(0.0)
                parents.append(parent)
                names.append(nid)
                ops.append(tracer.op_id)
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if not leaf:
                    starts[frame[0]] = t0
                    ends[frame[0]] = t1
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                under[nid, names[parent] if parent >= 0 else -1] += 1
                if stack:
                    stack[-1][1] += dur

        traced.__wrapped__ = fn
        return traced

    # -- queries over the recorded data -----------------------------------

    def stat(self, name: str) -> tuple[int, float]:
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0
        return self.calls[nid], self.self_s[nid]

    def calls_under(self, name: str, parent: str) -> int:
        nid, pid = self._ids.get(name), self._ids.get(parent)
        if nid is None or pid is None:
            return 0
        return self.under.get((nid, pid), 0)

    def median_pass_s(self) -> float:
        return statistics.median(self.pass_s) if self.pass_s else 0.0

    def write(self, path):
        """Spans as a JSON header line followed by the raw column arrays."""
        columns = ("span_start", "span_end", "span_parent", "span_name", "span_op")
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for c in columns:
                getattr(self, c).tofile(fh)

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the layers' public calls; returns the undo function."""
        from pqc import cli, codec, geom, ingest, morton, qtree
        from pqc.store import CompressedStore

        refine = importlib.import_module("pqc.refine")  # pqc.refine is also a function

        undo = []
        tracer = self
        counts = self.counts

        def everywhere(original, name, leaf=False, fn=None):
            _patch_everywhere(original, self.wrap(name, fn or original, leaf), undo)

        def method(cls, attr, name, leaf=False, body=None):
            _patch_method(
                cls, attr, lambda f: self.wrap(name, body(f) if body else f, leaf), undo
            )

        # codec: the kernel calls (already wrapped by KernelTally when present).
        everywhere(codec.decode_records, "codec.decode", leaf=True)
        everywhere(codec.encode_records, "codec.encode", leaf=True)
        everywhere(morton.interleave, "morton.interleave", leaf=True)

        # store, and the per-query views it hands out.
        def counting_insert(insert):
            def body(store, *args, **kwargs):
                before = store.block_count
                insert(store, *args, **kwargs)
                if tracer.enabled and store.block_count > before:
                    counts["store.block_splits"] += 1

            return body

        method(CompressedStore, "decode_block", "store.decode_block")
        method(CompressedStore, "decode_all", "store.decode_all")
        method(CompressedStore, "successor_rank", "store.successor_rank", leaf=True)
        method(CompressedStore, "insert", "store.insert", body=counting_insert)
        method(CompressedStore, "build", "store.build")
        method(CompressedStore, "load", "store.load")
        method(CompressedStore, "save", "store.save")
        view_cls = type(CompressedStore(morton.Config()).query_context())
        if view_cls is not CompressedStore:
            method(view_cls, "successor_rank", "store.successor_rank", leaf=True)

        # Work counters of every store and array source made while tracing.
        base_counters = qtree.Counters

        class RegisteredCounters(base_counters):
            __slots__ = ()

            def __init__(self):
                super().__init__()
                if tracer.enabled:
                    tracer.counters_seen.append(self)

        _patch_everywhere(base_counters, RegisteredCounters, undo)

        # qtree
        crowded_id = self.name_id("qtree.is_crowded")

        def square_of_body(*args, **kwargs):
            before = tracer.calls[crowded_id]
            result = square_of(*args, **kwargs)
            if tracer.enabled and tracer.calls[crowded_id] == before:
                counts["qtree.square_of.shortcuts"] += 1
            return result

        square_of = qtree.square_of
        everywhere(qtree.is_crowded, "qtree.is_crowded")
        everywhere(qtree.vertices, "qtree.vertices")
        everywhere(square_of, "qtree.square_of", fn=square_of_body)

        # geom
        clip_halfplane = geom.clip_halfplane
        clipped_voronoi = geom.clipped_voronoi

        def clip_body(poly, *args):
            result = clip_halfplane(poly, *args)
            if tracer.enabled and result is not poly:
                counts["geom.clip_halfplane.useful"] += 1
            return result

        def voronoi_body(*args, **kwargs):
            cell = clipped_voronoi(*args, **kwargs)
            if tracer.enabled:
                counts["geom.cell_squares"] += cell.squares_scanned
            return cell

        everywhere(geom.round_set, "geom.round_set")
        everywhere(clip_halfplane, "geom.clip_halfplane", leaf=True, fn=clip_body)
        everywhere(clipped_voronoi, "geom.clipped_voronoi", fn=voronoi_body)
        everywhere(geom.nearest_neighbor, "geom.nearest_neighbor")

        # ingest
        read_multiscan = ingest.read_multiscan

        def multiscan_body(*args, **kwargs):
            stats = kwargs.get("stats_out")
            store = read_multiscan(*args, **kwargs)
            if tracer.enabled and stats is not None:
                counts["ingest.peak_interim_store_bytes"] = max(
                    counts["ingest.peak_interim_store_bytes"],
                    stats["peak_interim_store_bytes"],
                )
            return store

        def masked_body(masked):
            def body(reader, bits):
                t0 = perf_counter()
                yield from masked(reader, bits)
                if tracer.enabled:
                    tracer.pass_s.append(perf_counter() - t0)

            return body

        everywhere(read_multiscan, "ingest.read_multiscan", fn=multiscan_body)
        everywhere(ingest.parse_point_line, "ingest.parse", leaf=True)
        _patch_method(ingest.TextPointReader, "masked", masked_body, undo)

        # refine
        refine_fn = refine.refine

        def refine_body(*args, **kwargs):
            store, report = refine_fn(*args, **kwargs)
            if tracer.enabled:
                counts["refine.rounds"] += report.rounds
                counts["refine.steiner_points"] += report.steiner_count
                counts["refine.output_points"] += report.output_count
            return store, report

        everywhere(refine_fn, "refine.refine", fn=refine_body)
        everywhere(refine.pick_steiner, "refine.pick_steiner")

        # cli
        everywhere(cli.main, "cli.main")

        return lambda: _undo_all(undo)
