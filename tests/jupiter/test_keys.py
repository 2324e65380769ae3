"""Tests for ``(d, extras)`` state keys (repro.jupiter.keys).

The set is the specification: whatever pair a :class:`StateKey` holds,
it must behave as the ``frozenset`` of its window members — the contract
that lets a literal frozenset name a state and keeps
``ReferenceStateSpace`` the refinement check.  What the pair buys is
pinned by counts, not timings: ids stored per key, key objects surviving
a rebase, late serial assignment re-keying nothing.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import OpId
from repro.errors import UnknownStateError
from repro.jupiter.css import CssClient, CssServer
from repro.jupiter.keys import StateKey, key_of
from repro.jupiter.nary import NaryStateSpace
from repro.jupiter.ordering import ClientOrderOracle, ServerOrderOracle
from repro.model.schedule import OpSpec
from repro.ot import insert


def opid(index):
    return OpId(f"c{index % 3 + 1}", index // 3 + 1)


def extended(root, members, rng):
    """``root`` extended by ``members`` one id at a time, in a random order."""
    order = sorted(members)
    rng.shuffle(order)
    key = root
    for member in order:
        key = key.extend(member)
    return key


def assert_is_the_set(key, members, universe):
    """``key`` is indistinguishable from ``frozenset(members)``."""
    members = frozenset(members)
    assert key == members and members == key
    assert not key != members
    assert hash(key) == hash(members)
    assert len(key) == len(members)
    assert set(key) == members and len(list(key)) == len(members)
    for candidate in universe:
        assert (candidate in key) == (candidate in members)
    assert {key: "node"}[members] == "node"
    assert {members: "node"}[key] == "node"


def logged(*ids):
    """A serial log that has assigned ``ids`` in order."""
    log = ServerOrderOracle()
    for each in ids:
        log.assign(each)
    return log


def grown(count=4):
    """A space that integrated ``count`` sequential operations."""
    log = ServerOrderOracle()
    space = NaryStateSpace(log)
    for index in range(count):
        op = insert(OpId("c1", index + 1), "x", 0, space.final_key)
        log.assign(op.opid)
        space.integrate(op)
    return space


class TestIntern:
    """One state, one key: there is no table to intern through any more,
    so equal content must *be* one key by value — whatever named it."""

    def test_equal_content_interns_to_one_instance(self):
        a, b = opid(0), opid(1)
        log = logged(a, b)
        first, second = key_of(log, frozenset({a, b})), key_of(log, [b, a])
        assert first == second and hash(first) == hash(second)
        assert {first: "node"}[second] == "node"
        assert key_of(log, first) is first  # already a key of this log

    def test_accepts_any_iterable(self):
        a, b = opid(0), opid(1)
        canonical = key_of(logged(a), frozenset({a, b}))
        for log in (logged(a), logged(b, a), None):
            for members in ([a, b], {a, b}, (m for m in (b, a)), canonical):
                assert key_of(log, members) == canonical

    def test_distinct_contents_stay_distinct(self):
        a, b = opid(0), opid(1)
        log = logged(a, b)
        assert key_of(log, {a}) != key_of(log, {b})
        assert len({key_of(log, {a}): 1, key_of(log, {b}): 2}) == 2


class TestExtend:
    def test_extend_equals_union(self):
        a, b = opid(0), opid(1)
        for log in (logged(a, b), logged(b), None):
            assert key_of(log, {a}).extend(b) == frozenset({a, b})

    def test_extend_is_memoised_and_canonical(self):
        """Nothing is memoised: extending twice, or reaching the content
        another way, builds equal keys that find the one node."""
        a, b = opid(0), opid(1)
        log = logged(a, b)
        base = key_of(log, {a})
        first = base.extend(b)
        table = {first: "node"}
        assert table[base.extend(b)] == "node"
        assert table[key_of(log, {b}).extend(a)] == "node"
        assert table[key_of(log, frozenset({a, b}))] == "node"
        assert first.stored_ids() == 0  # ...as serials 1..2, holding no id


class TestForget:
    """A space holds keys in its node table and nowhere else, so a prune
    leaves nothing to forget — and touches no survivor."""

    def test_forget_drops_canon_and_extend_entries(self):
        space = grown()
        doomed, kept = space.states()[:2], space.states()[2:]
        assert space.prune_below(kept[0]) == 2
        assert [id(key) for key in space.states()] == [id(key) for key in kept]
        assert not any(space.has_state(key) for key in doomed)
        assert not any(
            isinstance(value, dict) and value is not space._nodes
            for value in vars(space).values()
        )

    def test_forget_purges_entries_sourced_at_doomed_keys(self):
        space = grown()
        root, floor = space.states()[0], space.states()[2]
        space.prune_below(floor)
        stray = insert(OpId("c2", 1), "y", 0, root)
        space._oracle.assign(stray.opid)
        with pytest.raises(UnknownStateError):
            space.integrate(stray)  # nothing resurrects a pruned state

    def test_forget_nothing_is_a_noop(self):
        space = grown()
        before = [id(key) for key in space.states()]
        assert space.prune_below(frozenset()) == 0
        assert [id(key) for key in space.states()] == before


cases = st.tuples(
    st.integers(min_value=0, max_value=12),  # serialised operations
    st.integers(min_value=0, max_value=12),  # trim floor (clamped)
    st.integers(min_value=0, max_value=4),  # unserialised (pending) ids
    st.integers(min_value=0, max_value=2**32),  # subset / order seed
)


class TestAKeyIsTheFrozensetOfItsWindowMembers:
    @settings(max_examples=200, deadline=None)
    @given(cases)
    def test_under_any_serial_assignment_and_base(self, case):
        assigned, floor, pending, seed = case
        rng = random.Random(seed)
        log = ServerOrderOracle()
        serialised = [opid(i) for i in range(assigned)]
        for each in serialised:
            log.assign(each)
        log.trim_below(min(floor, assigned))
        window = serialised[log.base:]
        universe = serialised + [opid(100 + i) for i in range(pending)]
        pool = window + universe[assigned:]
        first = frozenset(m for m in pool if rng.random() < 0.6)
        second = frozenset(m for m in pool if rng.random() < 0.6)
        root = key_of(log, ())
        key, other = key_of(log, first), key_of(log, second)

        assert_is_the_set(key, first, universe)
        # extend commutes: any order of single-id extensions is one key
        assert_is_the_set(extended(root, first, rng), first, universe)
        assert extended(root, first, rng) == extended(root, first, rng)
        # ...and the set algebra is the set's
        assert (key <= other) == (first <= second)
        assert (key <= second) == (first <= second)
        assert (first <= other) == (first <= second)
        assert key | other == first | second
        assert key | second == first | second
        assert key & other == first & second
        assert key & second == first & second
        assert hash(key | other) == hash(first | second)
        assert hash(key & other) == hash(first & second)

    @settings(max_examples=100, deadline=None)
    @given(cases)
    def test_without_a_serial_log(self, case):
        _assigned, _floor, pending, seed = case
        rng = random.Random(seed)
        universe = [opid(i) for i in range(pending + 3)]
        members = frozenset(m for m in universe if rng.random() < 0.6)
        assert_is_the_set(key_of(None, members), members, universe)
        assert_is_the_set(extended(key_of(None, ()), members, rng), members, universe)

    @settings(max_examples=100, deadline=None)
    @given(cases)
    def test_two_forms_of_one_set_are_one_key(self, case):
        """A client's pending operations are extras until their echoes
        name serials; the keys built meanwhile and the keys built after
        are equal, hash alike and find one node."""
        assigned, _floor, pending, seed = case
        rng = random.Random(seed)
        log = ClientOrderOracle("c1")
        remote = [OpId("c2", i + 1) for i in range(assigned)]
        own = [OpId("c1", i + 1) for i in range(pending)]
        for serial, each in enumerate(remote, start=1):
            log.record(each, serial)
        early = extended(key_of(log, remote), own, rng)  # own ids: extras
        assert early.stored_ids() == len(own)
        table = {early: "node"}
        for serial, each in enumerate(own, start=assigned + 1):
            log.record(each, serial)  # the echo: appends to the log only
        late = log.dense(assigned + pending)
        assert late.stored_ids() == 0
        assert early == late and hash(early) == hash(late)
        assert table[late] == "node"
        assert table[frozenset(remote + own)] == "node"
        assert early.pair() == late.pair() == (assigned + pending, frozenset())

    def test_keys_of_two_replicas_of_one_order_compare_by_pair(self):
        server, client = ServerOrderOracle(), ClientOrderOracle("c1")
        ids = [opid(i) for i in range(6)]
        for serial, each in enumerate(ids, start=1):
            server.assign(each)
            if serial <= 4:
                client.record(each, serial)
        mine = client.dense(4).extend(ids[5])
        theirs = server.dense(4).extend(ids[5])
        assert mine == theirs and hash(mine) == hash(theirs)
        assert key_of(server, mine) == theirs
        assert mine != server.dense(5)
        # a different history of the same length is a different set
        other = ServerOrderOracle()
        for each in reversed(ids):
            other.assign(each)
        assert other.dense(4) != server.dense(4)


class TestLateSerialAssignmentReKeysNothing:
    def test_echoes_resolve_to_the_nodes_built_while_pending(self):
        server = CssServer("s", ["c1", "c2"])
        c1, c2 = CssClient("c1"), CssClient("c2")
        p1 = c1.generate(OpSpec("ins", 0, "a"))
        p2 = c1.generate(OpSpec("ins", 1, "b"))
        remote = c2.generate(OpSpec("ins", 0, "x"))

        def ship(sender, message):
            """The server serialises; c1 hears of it; c1's space then
            holds every state and ordered transition the server's does."""
            c1.receive(dict(server.receive(sender, message))["c1"])
            assert c1.space.contains_structure(server.space)

        ship("c2", remote.outgoing)
        # built while p1 and p2 were extras: {x, p1} and {x, p1, p2}
        r, a = remote.operation.opid, p1.operation.opid
        middle = c1.space.node(frozenset({r, a})).key
        final = c1.space.final_key
        assert (middle.stored_ids(), final.stored_ids()) == (1, 2)
        nodes_before = c1.space.node_count()

        for d, message, built in ((2, p1, middle), (3, p2, final)):
            ship("c1", message.outgoing)
            resolved = c1.oracle.key_from_run(d, 0, message.operation.opid)
            assert resolved.stored_ids() == 0
            assert c1.space.node(resolved).key is built
            assert built.pair() == (d, frozenset())  # settled in place
        assert c1.space.node_count() == nodes_before
        assert c1.space.final_key is final
        assert c1.space.same_structure(server.space)


class TestAStateCostsItsConcurrency:
    @pytest.mark.parametrize("writers", [1, 3])
    def test_stored_ids_and_survivors_after_2000_ops(self, writers):
        """GC pinned: 2,000 retained states hold O(writers) ids each
        (about 2,000,000 in all as frozensets), and a rebase hands every
        survivor its own key object back."""
        names = [f"w{i + 1}" for i in range(writers)]
        server = CssServer("s", names)
        clients = {name: CssClient(name) for name in names}
        for step in range(2000 // writers + 1):
            pending = [
                (name, clients[name].generate(OpSpec("ins", 0, "ab"[step % 2])))
                for name in names
            ]  # every writer edits before any hears another
            for name, result in pending:
                for target, broadcast in server.receive(name, result.outgoing):
                    clients[target].receive(broadcast)
        assert server.oracle.last_serial >= 2000
        for replica in [server, *clients.values()]:
            keys = replica.space.states()
            stored = sum(key.stored_ids() for key in keys)
            assert stored <= (writers + 1) * replica.space.node_count()
        assert max(len(key) for key in server.space.states()) >= 2000

        floor = server.oracle.last_serial - 10
        for replica in [server, *clients.values()]:
            before = {id(key) for key in replica.space.states()}
            final = replica.space.final_key
            assert replica.rebase_to_serial(floor) > 0
            survivors = replica.space.states()
            assert {id(key) for key in survivors} <= before
            assert replica.space.final_key is final
            assert max(len(key) for key in survivors) <= 10 + writers
            for transition in replica.space.transitions():
                assert transition.operation.context is transition.source
        assert {c.document.as_string() for c in clients.values()} == {
            server.document.as_string()
        }


def test_a_key_is_a_set_not_a_frozenset_subclass():
    key = key_of(ServerOrderOracle(), ())
    assert isinstance(key, StateKey) and not isinstance(key, frozenset)
    assert key == frozenset() and key == key_of(None, ())
