"""Group descriptors and homomorphisms for the classes the library computes in.

All groups are written additively (also the non-commutative ones); rendering
prints +/-.  Every class provides exact arithmetic, unique canonical element
forms, the canonical word of an element read off its normal form as runs
(`Group.word_runs`), and JSON (de)serialization matching the structure-file
format.  Homomorphisms are evaluated on the source's normal form: abelian
coordinates, free nil(2) normal forms and free-group syllables fold
closed-form multiples, so no exponent is ever spelled out letter by letter.
"""

from __future__ import annotations

from itertools import chain, product
from operator import mul
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from . import nil2
from .intlinalg import Lattice, solve_left
from .words import invert_word, join_words, word_from_pairs

if TYPE_CHECKING:  # annotations only: generators are built where they are seeded
    import random


def is_int(v) -> bool:
    """True for an int that is not a bool (JSON true and false are not
    integers here)."""
    return isinstance(v, int) and not isinstance(v, bool)


def int_entries(values, what: str) -> tuple[int, ...]:
    """The entries of a JSON array as a tuple of ints.  Anything that is not
    an int is rejected, bool included."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what} must be an array of integers")
    for v in values:
        if not is_int(v):
            raise ValueError(f"{what} entries must be integers, found {v!r}")
    return tuple(values)


def int_arrays(objs, width: int) -> bool:
    """Whether objs is a list of lists of `width` entries, each of type int
    exactly (no bool, no int subclass): decided by one set of types and one
    of lengths, built at C speed."""
    return (type(objs) is list and set(map(type, objs)) <= {list}
            and set(map(len, objs)) <= {width}
            and set(map(type, chain.from_iterable(objs))) <= {int})


def format_terms(terms: Iterable[tuple[int, str]]) -> str:
    """Render (coefficient, name) terms, zero coefficients left out, as
    "x - 3*y + z"; the empty sum is "0"."""
    bits = []
    for e, name in terms:
        if not e:
            continue
        body = name if abs(e) == 1 else f"{abs(e)}*{name}"
        if not bits:
            bits.append(body if e > 0 else f"-{body}")
        else:
            bits.append(f"{'+' if e > 0 else '-'} {body}")
    return " ".join(bits) if bits else "0"


def word_pairs(obj, rank: int):
    """Word input [[gen, exponent], ...] checked pair by pair: gen an int in
    [0, rank), exponent an int; bool is rejected for both."""
    if not isinstance(obj, (list, tuple)):
        raise ValueError("a word must be an array of [generator, exponent] pairs")
    for pair in obj:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"word entries must be [generator, exponent] pairs, "
                             f"found {pair!r}")
        gen, _ = int_entries(pair, "word pair")
        if not 0 <= gen < rank:
            raise ValueError(f"generator index {gen} out of range for rank {rank}")
    return obj


class Group:
    """Common interface for the supported group classes."""

    kind = "group"

    def __init__(self, ngens: int, names: Sequence[str] | None = None):
        if ngens < 0:
            raise ValueError("number of generators must be non-negative")
        self.ngens = ngens
        if names is None:
            names = tuple(f"g{i}" for i in range(ngens))
        names = tuple(names)
        if len(names) != ngens:
            raise ValueError("names length must match the number of generators")
        self.names = names
        self._generators: tuple | None = None
        # the relation lattice of the abelianization, modulo which the
        # coordinates of a group abelian as presented are equal: zero but
        # in `FgAbelianGroup`, which replaces it with its relations
        self.lattice = Lattice(ngens)

    # -- element interface: every subclass provides identity(), gen(i),
    # op(x, y), inv(x), format_element(x), element_to_json(x),
    # element_from_json(obj), random_element(rng, size=6), to_json(), and
    #   canon(x): the canonical form of x (idempotent), equal elements
    #     getting equal forms;
    #   word_runs(x): the canonical word of x as runs (block, count), read
    #     off the normal form: each block, a few (generator, sign) pairs,
    #     stands repeated count times, in order, no exponent expanded;
    #   ab(x): the exponent vector of x in Z^ngens, its image in the
    #     abelianization;
    #   is_abelian, is_nil2: properties, True when the class satisfies the
    #     abelian, or all nil(2), laws structurally.

    # -- shared helpers -----------------------------------------------------
    def ab_relation_rows(self) -> list[tuple[int, ...]]:
        """Rows spanning the relation lattice of the abelianization."""
        return self.lattice.basis()

    def elements_from_json(self, objs) -> list:
        """element_from_json of each entry of the JSON array objs; a class
        reads at once the arrays it can, with the same values."""
        return list(map(self.element_from_json, objs))

    def eq(self, x, y) -> bool:
        return self.canon(x) == self.canon(y)

    def is_identity(self, x) -> bool:
        return self.eq(x, self.identity())

    def fold(self, terms: Iterable[tuple[Any, int]]):
        """k_1 x_1 + ... + k_m x_m for the (x, k) pairs of terms, in order;
        a term with k = 1 adds x itself, and one with k = 0 is skipped."""
        acc = self.identity()
        for x, k in terms:
            if k:
                acc = self.op(acc, x if k == 1 else self.pow(x, k))
        return acc

    def op_all(self, *xs):
        return self.fold((x, 1) for x in xs)

    def pow(self, x, k: int):
        if k < 0:
            return self.pow(self.inv(x), -k)
        acc = self.identity()
        while k:
            if k & 1:
                acc = self.op(acc, x)
            k >>= 1
            if k:
                x = self.op(x, x)
        return acc

    def commutator(self, x, y):
        return self.op_all(self.inv(x), self.inv(y), x, y)

    def generators(self) -> list:
        """The canonical generators, built once per group, as groups do not
        change after construction; a fresh list on each call."""
        if self._generators is None:
            self._generators = tuple(self.gen(i) for i in range(self.ngens))
        return list(self._generators)

    def from_ab(self, vec: Sequence[int]):
        """Element with the given exponent vector (commutator part zero)."""
        return self.fold(zip(self.generators(), vec, strict=True))

    def central_coords(self, x) -> tuple[int, ...] | None:
        """The coordinates of x in the centre, for linear boundary equations,
        or None when x is not central.  They lie in Z^k modulo
        `ab_relation_rows`, k their length at the identity: an abelian group
        is its own centre in the coordinates of `ab`, and the other classes
        have no relations."""
        return self.ab(x)

    def __eq__(self, other) -> bool:
        return isinstance(other, Group) and self.descriptor() == other.descriptor()

    def __hash__(self) -> int:
        return hash(self.descriptor())

    def descriptor(self) -> tuple:
        return (self.kind, self.ngens)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} ngens={self.ngens}>"


def _run(i: int, a: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """The run a g_i, a != 0: one signed generator repeated |a| times."""
    return ((i, 1 if a > 0 else -1),), abs(a)


class FreeGroup(Group):
    """Free group; elements are freely reduced words of syllables
    (generator, exponent), as in `words`."""

    kind = "free"

    def identity(self):
        return ()

    def gen(self, i: int):
        if not 0 <= i < self.ngens:
            raise ValueError(f"generator index {i} out of range")
        return ((i, 1),)

    def op(self, x, y):
        return join_words(x, y)

    def inv(self, x):
        return invert_word(x)

    def canon(self, x):
        return word_from_pairs(x)

    def word_runs(self, x):
        return [_run(i, a) for i, a in self.canon(x)]

    def ab(self, x):
        out = [0] * self.ngens
        for i, a in x:
            out[i] += a
        return tuple(out)

    def format_element(self, x) -> str:
        return format_terms((a, self.names[i]) for i, a in self.canon(x))

    @property
    def is_abelian(self) -> bool:
        return self.ngens <= 1

    @property
    def is_nil2(self) -> bool:
        return self.ngens <= 1

    def central_coords(self, x):
        if self.is_abelian:
            return self.ab(x)
        # the centre of a free group of rank >= 2 is trivial
        return () if self.is_identity(x) else None

    def element_to_json(self, x):
        return [list(s) for s in self.canon(x)]

    def element_from_json(self, obj):
        return word_from_pairs(word_pairs(obj, self.ngens))

    def random_element(self, rng, size: int = 6):
        length = rng.randint(0, size)
        return word_from_pairs((rng.randrange(self.ngens), rng.choice((1, -1)))
                               for _ in range(length)) if self.ngens else ()

    def to_json(self) -> dict:
        return {"kind": self.kind, "rank": self.ngens, "names": list(self.names)}


class FreeNil2Group(Group):
    """Free nil(2) group; elements are nil2.Nil2Element normal forms."""

    kind = "free_nil2"

    def identity(self):
        return nil2.identity(self.ngens)

    def gen(self, i: int):
        return nil2.generator(self.ngens, i)

    def basic_commutator(self, i: int, j: int):
        return nil2.basic_commutator(self.ngens, i, j)

    def op(self, x, y):
        return nil2.mul(x, y)

    def inv(self, x):
        return nil2.inv(x)

    def pow(self, x, k: int):
        return nil2.power(x, k)

    def fold(self, terms):
        return nil2.fold(self.ngens, terms)

    def commutator(self, x, y):
        return nil2.commutator(x, y)

    def canon(self, x):
        if not isinstance(x, nil2.Nil2Element) or x.n != self.ngens:
            raise ValueError("not an element of this group")
        return x

    def word_runs(self, x):
        return nil2.word_runs(self.canon(x))

    def ab(self, x):
        return self.canon(x).base

    def from_ab(self, vec: Sequence[int]):
        """The element with base vec and commutator part zero.  The fold of
        the generators in ascending order, which `Group.from_ab` takes,
        moves no letter past a later generator, so it collects no
        commutator."""
        if len(vec) != self.ngens:
            raise ValueError("element length does not match rank")
        return nil2.Nil2Element(tuple(vec), (0,) * len(nil2.pair_list(self.ngens)))

    @property
    def is_abelian(self) -> bool:
        return self.ngens <= 1

    def central_coords(self, x):
        x = self.canon(x)
        if self.is_abelian:
            return x.base
        return x.comm if x.is_central() else None

    @property
    def is_nil2(self) -> bool:
        return True

    def element_to_json(self, x):
        x = self.canon(x)
        return {"base": list(x.base), "comm": list(x.comm)}

    def element_from_json(self, obj):
        if isinstance(obj, dict):
            base = int_entries(obj.get("base", ()), "base")
            npairs = len(nil2.pair_list(self.ngens))
            comm = int_entries(obj.get("comm", (0,) * npairs), "comm")
            if len(base) != self.ngens or len(comm) != npairs:
                raise ValueError("element dimensions do not match the group rank")
            return nil2.Nil2Element(base, comm)
        return self.fold((self.gen(i), e) for i, e in word_pairs(obj, self.ngens))

    def elements_from_json(self, objs) -> list:
        """Objects of exactly the keys base and comm, arrays of full length,
        are read at once; any other input element by element."""
        if type(objs) is list and set(map(type, objs)) <= {dict} and set(map(len, objs)) <= {2}:
            base, comm = [o.get("base") for o in objs], [o.get("comm") for o in objs]
            if int_arrays(base, self.ngens) and int_arrays(comm, len(nil2.pair_list(self.ngens))):
                return list(map(nil2.Nil2Element, map(tuple, base), map(tuple, comm)))
        return super().elements_from_json(objs)

    def random_element(self, rng, size: int = 6):
        if not self.ngens:
            return self.identity()
        return self.fold((self.gen(rng.randrange(self.ngens)), rng.choice((1, -1)))
                         for _ in range(rng.randint(0, size)))

    def format_element(self, x) -> str:
        x = self.canon(x)
        names = self.names
        return format_terms(chain(
            zip(x.base, names),
            ((c, f"({names[i]},{names[j]})")
             for c, (i, j) in zip(x.comm, nil2.pair_list(self.ngens)))))

    def to_json(self) -> dict:
        return {"kind": self.kind, "rank": self.ngens, "names": list(self.names)}


class FgAbelianGroup(Group):
    """Finitely generated abelian group Z^rank / (row lattice of relations)."""

    kind = "fg_abelian"

    def __init__(self, rank: int, relations: Iterable[Sequence[int]] = (),
                 names: Sequence[str] | None = None):
        super().__init__(rank, names)
        self.relations = [list(r) for r in relations]
        for r in self.relations:
            if len(r) != rank:
                raise ValueError(f"relation width {len(r)} does not match rank {rank}")
        self.lattice = Lattice(rank, self.relations)

    def identity(self):
        return (0,) * self.ngens

    def gen(self, i: int):
        """The canonical generator i: the unit vector reduced, once per group."""
        if not 0 <= i < self.ngens:
            raise ValueError(f"generator index {i} out of range")
        if self._generators is None:
            n = self.ngens
            self._generators = tuple(self.lattice.reduce([int(k == j) for k in range(n)])
                                     for j in range(n))
        return self._generators[i]

    def op(self, x, y):
        return self.lattice.reduce([a + b for a, b in zip(x, y)])

    def inv(self, x):
        return self.lattice.reduce([-a for a in x])

    def pow(self, x, k: int):
        return self.lattice.reduce([k * a for a in x])

    def fold(self, terms):
        """The integer sum of the k x, reduced once."""
        acc = [0] * self.ngens
        for x, k in terms:
            if k:
                acc = [s + k * a for s, a in zip(acc, x)]
        return self.lattice.reduce(acc)

    def canon(self, x):
        if len(x) != self.ngens:
            raise ValueError("element length does not match rank")
        return self.lattice.reduce(list(x))

    def from_ab(self, vec: Sequence[int]):
        """The element with coordinates vec: one reduction."""
        return self.canon(vec)

    def eq(self, x, y) -> bool:
        """canon(x) == canon(y), by one reduction of x - y, and none when x
        and y are the same tuple; an element of the wrong length raises
        ValueError as in `canon`."""
        if len(x) != self.ngens or len(y) != self.ngens:
            raise ValueError("element length does not match rank")
        return x == y or not any(self.lattice.reduce([a - b for a, b in zip(x, y)]))

    def word_runs(self, x):
        return [_run(i, a) for i, a in enumerate(self.canon(x)) if a]

    def ab(self, x):
        return self.canon(x)

    def format_element(self, x) -> str:
        return format_terms(zip(self.canon(x), self.names))

    @property
    def is_abelian(self) -> bool:
        return True

    @property
    def is_nil2(self) -> bool:
        return True

    def element_to_json(self, x):
        return list(self.canon(x))

    def element_from_json(self, obj):
        return self.canon(int_entries(obj, "coordinate"))

    def elements_from_json(self, objs) -> list:
        """Arrays of ngens ints are checked at once and each is reduced once;
        any other input is read element by element."""
        if not int_arrays(objs, self.ngens):
            return super().elements_from_json(objs)
        return list(map(self.lattice.reduce, objs))

    def random_element(self, rng, size: int = 6):
        return self.canon(tuple(rng.randint(-size, size) for _ in range(self.ngens)))

    def descriptor(self) -> tuple:
        return (self.kind, self.ngens, tuple(self.lattice.basis()))

    def to_json(self) -> dict:
        return {"kind": "fg_abelian", "rank": self.ngens,
                "relations": [list(r) for r in self.relations],
                "names": list(self.names)}


class FreeAbelianGroup(FgAbelianGroup):
    kind = "free_abelian"

    def __init__(self, rank: int, names: Sequence[str] | None = None):
        super().__init__(rank, (), names)

    def to_json(self) -> dict:
        return {"kind": "free_abelian", "rank": self.ngens, "names": list(self.names)}


class CyclicGroup(FgAbelianGroup):
    kind = "cyclic"

    def __init__(self, order: int, names: Sequence[str] | None = None):
        if order < 1:
            raise ValueError("cyclic group order must be >= 1")
        self.order = order
        super().__init__(1, [[order]], names)

    def descriptor(self) -> tuple:
        return ("cyclic", self.order)

    def to_json(self) -> dict:
        return {"kind": "cyclic", "order": self.order, "names": list(self.names)}


def group_from_json(obj: dict) -> Group:
    kind = obj.get("kind")
    names = obj.get("names")
    if kind == "free":
        return FreeGroup(obj["rank"], names)
    if kind == "free_nil2":
        return FreeNil2Group(obj["rank"], names)
    if kind == "free_abelian":
        return FreeAbelianGroup(obj["rank"], names)
    if kind == "fg_abelian":
        return FgAbelianGroup(obj["rank"], obj.get("relations") or (), names)
    if kind == "cyclic":
        return CyclicGroup(obj["order"], names)
    raise ValueError(f"unknown group kind {kind!r}")


def generator_pairs(left: Group, right: Group, rng: random.Random | None = None,
                    samples: int = 0) -> list:
    """Every pair of generators of left x right, then `samples` random pairs
    drawn from rng at the call (left, then right, pair by pair)."""
    return ([(x, y) for x in left.generators() for y in right.generators()]
            + [(left.random_element(rng), right.random_element(rng))
               for _ in range(samples)])


def coords_of(g: Group, x) -> Sequence[int]:
    """g.ab(x) for x in g's normal form, without reducing an abelian x again."""
    if isinstance(g, FreeNil2Group):
        return x.base
    return g.ab(x) if isinstance(g, FreeGroup) else x


class GroupHom:
    """Homomorphism given by generator images; evaluated on the source's
    normal form.

    A value is the fold of the images over the normal form of the argument,
    in any target, and is computed afresh on each call.  The coordinates of
    the values at the source's generators are one matrix product in any
    target (`coords_at_generators`): the image-coordinate matrix, built on
    first use and kept on the map, times the generators' coordinates."""

    def __init__(self, source: Group, target: Group, images: Iterable):
        self._set(source, target, tuple(target.canon(x) for x in images))

    @staticmethod
    def of_canonical(source: Group, target: Group, images: Iterable) -> "GroupHom":
        """The map with these images, which must be canonical in target
        already, such as values of `element_from_json` or of another map;
        they are not canonicalized again."""
        out = object.__new__(GroupHom)
        out._set(source, target, tuple(images))
        return out

    def _set(self, source: Group, target: Group, images: tuple) -> None:
        if len(images) != source.ngens:
            raise ValueError("one image per source generator required")
        self.source, self.target, self.images = source, target, images
        self._rows: list[tuple[int, ...]] | None = None
        self._at: list[tuple[int, ...]] | None = None

    @staticmethod
    def identity(group: Group) -> "GroupHom":
        return GroupHom(group, group, group.generators())

    @staticmethod
    def zero(source: Group, target: Group) -> "GroupHom":
        return GroupHom(source, target, [target.identity()] * source.ngens)

    def __call__(self, x):
        """The value at x: the fold of the images over the canonical word of
        x, in one pass of `target.fold` over the normal form.  A run of k
        equal letters, a free-group syllable or an abelian coordinate, is the
        term (image, k), and c basic commutators -g_i - g_j + g_i + g_j are
        ((image_i, image_j), c).  By associativity the value is the same
        element in any target, whether or not the images define a
        homomorphism; in a target abelian as presented the fold sums the
        terms and reduces once, so it is the images' coordinate matrix times
        the coordinates of x."""
        return self._fold_canonical(self.source.canon(x))

    def _fold_canonical(self, x):
        """The value of `__call__` at x, already in the source's normal form,
        with x not canonicalized again."""
        src, t, images = self.source, self.target, self.images
        if isinstance(src, FreeNil2Group):
            runs, comm = enumerate(x.base), x.comm
        else:
            runs, comm = (x if isinstance(src, FreeGroup) else enumerate(x)), ()
        return t.fold(chain(((images[i], a) for i, a in runs if a),
                            ((t.commutator(images[i], images[j]), c)
                             for c, (i, j) in zip(comm, nil2.pair_list(src.ngens)) if c)))

    def matrix(self) -> list[tuple[int, ...]]:
        """The rows of M, the matrix whose column i holds the coordinates of
        images[i] (`coords_of`), built on first use and kept."""
        rows = self._rows
        if rows is None:
            cols = [coords_of(self.target, im) for im in self.images]
            rows = self._rows = list(zip(*cols)) if cols else [()] * self.target.ngens
        return rows

    def image_products(self, cols: Sequence[Sequence[int]]) -> list[list[int]]:
        """M times the coordinate vectors cols, by rows: entry [k][j] is
        coordinate k of M cols[j]."""
        return [[sum(map(mul, row, c)) for c in cols] for row in self.matrix()]

    def coords_at_generators(self) -> list[tuple[int, ...]]:
        """The coordinates (`coords_of`) of the values at the source's
        canonical generators, built on first use and kept: M times each
        generator's coordinates, reduced modulo the target's relations
        (`Group.lattice`).  The coordinates of a fold are the same integer
        combination of its terms' (a commutator's are 0), so these are the
        coordinates of `at_generator(i)` whether or not the images define a
        homomorphism, and no value is evaluated as an element.  A source
        without relations has the unit vectors as generator coordinates, so
        the values are M's columns, read with no product, no reduction (the
        images are canonical) and no generator built."""
        if self._at is None:
            src, t = self.source, self.target
            if src.lattice.rows:
                rows = self.image_products([coords_of(src, x) for x in src.generators()])
                self._at = list(map(t.lattice.reduce, zip(*rows))) if rows else [()] * src.ngens
            else:
                self._at = [tuple(coords_of(t, im)) for im in self.images]
        return self._at

    def at_generator(self, i: int):
        """self(source.generators()[i]), the value at the canonical generator,
        as an element, for the equations and corrections that compare
        elements; its coordinates are `coords_at_generators()[i]`.  It is not
        `images[i]` when the generator's canonical form is not the unit
        vector (an abelian source with relations) and the images do not
        define a homomorphism; from a source without relations it is
        `images[i]`, with nothing evaluated."""
        return self(self.source.generators()[i]) if self.source.lattice.rows else self.images[i]

    def with_image(self, i: int, x) -> "GroupHom":
        """This map with generator i sent to x; only x is canonicalized, the
        other images are shared."""
        return GroupHom.of_canonical(self.source, self.target, self.images[:i]
                                     + (self.target.canon(x),) + self.images[i + 1:])

    def then(self, other: "GroupHom") -> "GroupHom":
        """Composite x |-> other(self(x))."""
        return GroupHom.of_canonical(self.source, other.target,
                                     [other(im) for im in self.images])

    def power(self, k: int) -> "GroupHom":
        """The k-fold composite of an endomorphism, k >= 1, by repeated
        squaring."""
        acc, sq = None, self
        while True:
            if k & 1:
                acc = sq if acc is None else acc.then(sq)
            k >>= 1
            if not k:
                return acc
            sq = sq.then(sq)

    def is_zero(self) -> bool:
        return all(self.target.is_identity(im) for im in self.images)

    def relation_images(self):
        """(row, image) for each relation row of the source abelianization;
        the images define a homomorphism only if every such image is zero.
        Only an abelian source has relation rows, and its evaluation reads
        coordinates as they are, so a row is evaluated like an element."""
        for row in self.source.ab_relation_rows():
            yield row, self._fold_canonical(row)

    def check_hom(self) -> tuple[bool, str | None]:
        """Decide whether the images define a homomorphism; exact, no samples.

        Relation killing is exact.  An abelian source in a target that is not
        abelian as presented needs images that commute pairwise; with the
        relations killed, that decides the check.  A non-abelian nil(2)
        source in a target that is not nil(2), which is a free group of rank
        >= 2, needs its nil(2) laws on the images, and the generator triples
        decide them.  The images generate a nil(2) subgroup of the free
        group, which is then abelian (subgroups of free groups are free),
        exactly when they commute pairwise; and if the images x, y do not
        commute, the triple (x, y, x) fails, since (x, y) commutes with x
        only when x = 1 or (x, y) = 1 in a free group.  Free sources need
        nothing more.
        """
        t, images = self.target, self.images
        for row, img in self.relation_images():
            if not t.is_identity(img):
                return False, f"relation {list(row)} maps to a non-identity element"
        src = self.source
        if src.is_abelian and not t.is_abelian:
            names = src.names
            for i, j in nil2.pair_list(src.ngens):
                if not t.is_identity(t.commutator(images[i], images[j])):
                    return False, (f"images of {names[i]} and {names[j]} do not "
                                   "commute in the target")
        elif src.is_nil2 and not t.is_nil2:
            for a, b, c in product(range(src.ngens), repeat=3):
                if not t.is_identity(t.commutator(t.commutator(images[a], images[b]),
                                                  images[c])):
                    return False, (f"triple commutator ((g{a},g{b}),g{c}) "
                                   "does not vanish in the target")
        return True, None

    def element_json(self) -> dict:
        return {"images": [self.target.element_to_json(im) for im in self.images]}


def invert_hom(h: GroupHom) -> GroupHom:
    """Inverse of an automorphism given by generator images.

    Supported for abelian-presented groups (linear solve modulo relations)
    and free nil(2) groups (invert the base matrix over Z, then correct the
    central part).  Raises ValueError when no inverse exists or the class is
    unsupported.
    """
    g = h.source
    if g != h.target:
        raise ValueError("can only invert endomorphisms")
    if isinstance(g, FgAbelianGroup) or (g.is_abelian and not isinstance(g, FreeNil2Group)):
        rows = [list(g.ab(im)) for im in h.images] + [list(r) for r in g.ab_relation_rows()]
        images = []
        for j in range(g.ngens):
            target = [1 if k == j else 0 for k in range(g.ngens)]
            sol, _ = solve_left(rows, target)
            if sol is None:
                raise ValueError("endomorphism is not invertible")
            images.append(g.from_ab(sol[:g.ngens]))
        return GroupHom(g, g, images)
    if isinstance(g, FreeNil2Group):
        base_rows = [list(g.ab(im)) for im in h.images]
        comm_rows = [list(h(g.basic_commutator(i, j)).comm)
                     for (i, j) in nil2.pair_list(g.ngens)]
        images = []
        for j in range(g.ngens):
            target = [1 if k == j else 0 for k in range(g.ngens)]
            sol, _ = solve_left(base_rows, target)
            if sol is None:
                raise ValueError("endomorphism is not invertible on the abelianization")
            cand = g.from_ab(sol)
            resid = g.op(g.inv(h(cand)), g.gen(j))  # central by construction
            # need central z with h(z) = resid, i.e. fix . comm_rows = resid.comm
            fix, _ = solve_left(comm_rows, list(resid.comm))
            if fix is None:
                raise ValueError("endomorphism is not invertible on the centre")
            z = nil2.Nil2Element((0,) * g.ngens, tuple(fix))
            images.append(g.op(cand, z))
        out = GroupHom(g, g, images)
        for j in range(g.ngens):
            if not g.eq(h(out.images[j]), g.gen(j)):
                raise ValueError("endomorphism is not invertible")
        return out
    raise ValueError(f"cannot invert a homomorphism on a {g.kind} group; "
                     "provide an explicit inverse table")
