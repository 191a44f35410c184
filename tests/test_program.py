"""Unit tests for the vector-program IR and builder."""

import numpy as np
import pytest

from repro.errors import VectorizeError
from repro.machine.isa import Affine, Op
from repro.machine.machine import SimdMachine
from repro.vectorize.program import Loop, ProgramBuilder, VectorProgram


class TestLoop:
    def test_trip_count(self):
        assert Loop("x", 0, 16, 4).trip_count == 4
        assert Loop("x", 2, 10, 8).trip_count == 1
        assert Loop("x", 0, 0, 1).trip_count == 0

    def test_rejects_nonpositive_step(self):
        with pytest.raises(VectorizeError):
            Loop("x", 0, 8, 0)

    def test_rejects_negative_range(self):
        with pytest.raises(VectorizeError):
            Loop("x", 8, 0, 1)

    def test_indices(self):
        assert list(Loop("x", 2, 10, 4).indices()) == [2, 6]


def tiny_program(**overrides):
    b = ProgramBuilder(4)
    v = b.load(b.mem(Affine.var("x")))
    b.store(v, b.mem(Affine.var("x"), array="out"))
    kwargs = dict(name="p", scheme="t", loops=[Loop("x", 0, 8, 4)],
                  vectors_per_iter=1)
    kwargs.update(overrides)
    return b.build(**kwargs)


class TestVectorProgram:
    def test_block_and_trips(self):
        p = tiny_program()
        assert p.block == 4
        assert p.inner_trips == 2
        assert p.total_body_runs() == 2

    def test_iter_outer_no_outer_loops(self):
        assert list(tiny_program().iter_outer()) == [{}]

    def test_iter_outer_product(self):
        p = tiny_program(loops=[Loop("z", 0, 2, 1), Loop("y", 5, 7, 1),
                                Loop("x", 0, 8, 4)])
        envs = list(p.iter_outer())
        assert len(envs) == 4
        assert {"z": 0, "y": 5} in envs
        assert {"z": 1, "y": 6} in envs

    def test_requires_loops(self):
        with pytest.raises(VectorizeError):
            tiny_program(loops=[])

    def test_rejects_bad_width(self):
        b = ProgramBuilder(4)
        v = b.load(b.mem(Affine.var("x")))
        b.store(v, b.mem(Affine.var("x"), array="out"))
        with pytest.raises(VectorizeError):
            VectorProgram(name="p", scheme="t", width=3,
                          loops=(Loop("x", 0, 8, 4),), prologue=(),
                          body=tuple(b._body), vectors_per_iter=1)

    def test_rejects_zero_vectors(self):
        with pytest.raises(VectorizeError):
            tiny_program(vectors_per_iter=0)

    def test_rejects_zero_steps(self):
        with pytest.raises(VectorizeError):
            tiny_program(steps_per_iter=0)

    def test_body_mix(self):
        mix = tiny_program().body_mix()
        assert mix.loads == 1
        assert mix.stores == 1

    def test_registers_used(self):
        assert tiny_program().registers_used() == 1

    def test_hash_is_memoized_and_matches_equality(self, monkeypatch):
        import dataclasses
        import pickle

        import repro.vectorize.program as program_mod
        p = tiny_program()
        fresh = hash(tiny_program())
        assert hash(p) == fresh
        assert p.__dict__["_hash_memo"][1] == hash(p)
        # equal programs hash equal; notes/tail_spec take no part
        twin = tiny_program()
        assert twin == p and hash(twin) == hash(p)
        noted = dataclasses.replace(p, notes="other")
        assert noted == p and hash(noted) == hash(p)
        moved = dataclasses.replace(p, loops=(Loop("x", 0, 12, 4),))
        assert moved != p and "_hash_memo" not in moved.__dict__
        # str hashes are salted per process: a memo made under another
        # salt (a program unpickled elsewhere) is recomputed, not trusted
        back = pickle.loads(pickle.dumps(p))
        assert back == p and hash(back) == hash(p)
        stale = (program_mod._HASH_SALT + 1, hash(p) + 1)
        object.__setattr__(back, "_hash_memo", stale)
        object.__setattr__(back, "_code_memo", stale)
        assert hash(back) == fresh

    def test_with_loops_carries_the_code_hash(self, monkeypatch):
        """A program rebound to new loops hashes and compares equal to
        one built fresh over those loops, without hashing an
        instruction."""
        from repro.machine.isa import Instr
        loops = (Loop("x", 0, 16, 4),)
        template = tiny_program(loops=[Loop("x", 0, 0, 4)])
        hash(template)
        calls = []
        real = Instr.__hash__
        monkeypatch.setattr(Instr, "__hash__",
                            lambda self: calls.append(self) or real(self))
        bound = template.with_loops(loops)
        assert hash(bound) != hash(template)
        assert calls == []
        monkeypatch.setattr(Instr, "__hash__", real)
        fresh = tiny_program(loops=loops)
        assert bound == fresh and hash(bound) == hash(fresh)

    def test_listing_contains_loops_and_ops(self):
        text = tiny_program().listing()
        assert "for x in [0, 8) step 4" in text
        assert "vmovupd.load" in text


class TestProgramBuilder:
    def test_fresh_names_unique(self):
        b = ProgramBuilder(4)
        assert b.fresh() != b.fresh()

    def test_broadcast_cached_and_hoisted(self):
        b = ProgramBuilder(4)
        c1 = b.broadcast(0.5)
        c2 = b.broadcast(0.5)
        c3 = b.broadcast(0.25)
        assert c1 == c2 and c1 != c3
        v = b.load(b.mem(Affine.var("x")))
        b.store(b.mul(c1, v), b.mem(Affine.var("x"), array="out"))
        p = b.build(name="p", scheme="t", loops=[Loop("x", 0, 4, 4)],
                    vectors_per_iter=1)
        # broadcasts live in the prologue, not the body
        assert all(i.op is not Op.BROADCAST for i in p.body)
        assert sum(1 for i in p.prologue if i.op is Op.BROADCAST) == 2

    def test_weighted_sum_unit_first_coeff_uses_mov(self):
        b = ProgramBuilder(4)
        r = b.weighted_sum([(1.0, "a"), (0.5, "b")])
        ops = [i.op for i in b._body]
        assert Op.MOV in ops and Op.FMA in ops

    def test_weighted_sum_empty_rejected(self):
        with pytest.raises(VectorizeError):
            ProgramBuilder(4).weighted_sum([])

    def test_weighted_sum_executes_correctly(self):
        b = ProgramBuilder(4)
        va = b.load(b.mem(Affine.var("x")))
        vb = b.load(b.mem(Affine.var("x"), array="b"))
        r = b.weighted_sum([(2.0, va), (3.0, vb)])
        b.store(r, b.mem(Affine.var("x"), array="out"))
        p = b.build(name="p", scheme="t", loops=[Loop("x", 0, 4, 4)],
                    vectors_per_iter=1)
        a = np.arange(4.0)
        bb = np.arange(4.0) + 10
        out = np.zeros(4)
        SimdMachine(4).run(p, {"a": a, "b": bb, "out": out})
        assert np.allclose(out, 2 * a + 3 * bb)

    def test_deinterleave_masks(self):
        b = ProgramBuilder(4)
        lo, hi = b.deinterleave("a", "b")
        imms = [i.imm for i in b._body]
        assert imms == [0, 0b1111]

    def test_named_destinations(self):
        b = ProgramBuilder(4)
        assert b.shufpd("a", "b", 0, dst="named") == "named"
        assert b.mul("a", "b", dst="m") == "m"
        assert b.fma("a", "b", "c", dst="f") == "f"
        assert b.add("a", "b", dst="s") == "s"

    def test_stream_switching(self):
        b = ProgramBuilder(4)
        b.in_prologue()
        b.setzero()
        b.in_body()
        b.setzero()
        p_len, b_len = len(b._prologue), len(b._body)
        assert (p_len, b_len) == (1, 1)
