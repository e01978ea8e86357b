"""Instance families and the four workloads of the model_check benchmark.

Every workload is a fixed list of base instances, each an arena document plus
a formula. A run's seed draws an isomorphic copy of every base instance: it
renames the states, shuffles the order of states, initial states, transitions
and successor lists, and leaves props, agents and actions alone. The checker's
work (refined states, automaton states, solver choices, witness maps) is the
same on every copy; what changes is the concrete encoding it reads, and with it
the hashing and ordering of state ids. Fresh random arenas per seed would not
give steady totals: one n=6 nested-until instance in a hundred costs as much as
the other ninety-nine, so even 400 fresh instances per run leave a 15%
run-to-run spread on their total time.
"""

from random import Random

AGENTS = ("a1", "a2")
ACTIONS = ("a", "b")
PROPS = ("p0", "p1", "p2", "p3", "o1", "o2")
OBSERVES = {"a1": ("p0", "p1", "o1"), "a2": ("p1", "p2", "o2")}
HIDDEN = ("p3",)
INITIAL_COUNT = 3
BRANCHING = 2


def family_f_document(rng, n, full_obs=False):
    """ROADMAP's arena family F with n states, drawn from rng.

    Agents a1 and a2 have two actions each; a1 observes p0, p1, o1, a2
    observes p1, p2, o2 and p3 is hidden. Each state carries each prop with
    probability 0.5, every (state, joint action) pair has 2 sampled
    successors, and the first 3 states are initial. With full_obs both agents
    observe every prop and a per-state marker m<i>, so no two states look
    alike. The draw order matches the generator behind ROADMAP's baseline
    counts: family_f_document(Random(8), 8) gives its n=8 row.
    """
    states = ["q%d" % i for i in range(n)]
    labels = {q: [p for p in PROPS if rng.random() < 0.5] for q in states}
    transitions = []
    for q in states:
        for c1 in ACTIONS:
            for c2 in ACTIONS:
                transitions.append({"from": q, "actions": {"a1": c1, "a2": c2},
                                    "to": rng.sample(states, BRANCHING)})
    if full_obs:
        markers = ["m%d" % i for i in range(n)]
        for q, marker in zip(states, markers):
            labels[q].append(marker)
        observes = {a: list(PROPS) + markers for a in AGENTS}
        hidden = []
    else:
        observes = {a: list(OBSERVES[a]) for a in AGENTS}
        hidden = list(HIDDEN)
    return {
        "agents": [{"name": a, "actions": list(ACTIONS), "observes": observes[a]}
                   for a in AGENTS],
        "hidden_props": hidden,
        "states": [{"id": q, "labels": labels[q]} for q in states],
        "initial": states[:INITIAL_COUNT],
        "transitions": transitions,
    }


def isomorphic_copy(document, rng):
    """The same arena under fresh state ids and a shuffled document order."""
    ids = [entry["id"] for entry in document["states"]]
    names = ["s%d" % i for i in range(len(ids))]
    rng.shuffle(names)
    rename = dict(zip(ids, names))
    states = [{"id": rename[e["id"]], "labels": list(e["labels"])} for e in document["states"]]
    rng.shuffle(states)
    initial = [rename[q] for q in document["initial"]]
    rng.shuffle(initial)
    transitions = []
    for entry in document["transitions"]:
        to = [rename[q] for q in entry["to"]]
        rng.shuffle(to)
        transitions.append({"from": rename[entry["from"]],
                            "actions": dict(entry["actions"]), "to": to})
    rng.shuffle(transitions)
    return dict(document, states=states, initial=initial, transitions=transitions)


# Formulas are tuples so the reference evaluators never go through the
# checker's parser; render() gives the text model_check receives.

def atom(p):
    return ("atom", p)


def neg(f):
    return ("not", f)


def conj(f, g):
    return ("and", f, g)


def disj(f, g):
    return ("or", f, g)


def implies(f, g):
    return ("implies", f, g)


def modal(op, coalition, *operands):
    """K, P, X, F and G take one operand, U and W two."""
    return (op, tuple(coalition.split(","))) + operands


BINARY_TEXT = {"and": "&", "or": "|", "implies": "->"}


def render(f):
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind == "not":
        return "!" + render(f[1])
    if kind in BINARY_TEXT:
        return "(%s %s %s)" % (render(f[1]), BINARY_TEXT[kind], render(f[2]))
    coalition = ",".join(f[1])
    if kind in ("K", "P"):
        return "%s{%s} %s" % (kind, coalition, render(f[2]))
    if kind in ("U", "W"):
        return "<%s>(%s %s %s)" % (coalition, render(f[2]), kind, render(f[3]))
    return "<%s>%s %s" % (coalition, kind, render(f[2]))


def operands(f):
    if f[0] == "atom":
        return ()
    if f[0] == "not" or f[0] in BINARY_TEXT:
        return f[1:]
    return f[2:]


def monotone(f):
    """No negation, implication or P: truth under imperfect information then
    implies truth under perfect information."""
    return f[0] not in ("not", "implies", "P") and all(monotone(g) for g in operands(f))


p0, p1, p2, p3, o1, o2 = (atom(p) for p in PROPS)

NESTED_UNTIL_FORMULAS = (
    modal("F", "a1", modal("X", "a2", p3)),
    modal("F", "a2", modal("X", "a1", p3)),
    modal("F", "a1", modal("X", "a2", p0)),
    modal("U", "a2", p1, modal("X", "a1", p2)),
    modal("U", "a1", p0, modal("X", "a2", o2)),
    modal("F", "a2", modal("X", "a1", disj(p0, p3))),
)

WEAK_WITNESS_FORMULAS = (
    modal("W", "a1", p0, p2),
    modal("W", "a2", p2, p0),
    modal("G", "a1", disj(p0, p3)),
    modal("W", "a1,a2", p1, p3),
    modal("G", "a2", disj(o2, p1)),
    modal("W", "a1", o1, p1),
)

KNOWLEDGE_SPLIT_FORMULAS = (
    conj(conj(modal("K", "a1", p0), modal("X", "a1", p1)), modal("P", "a1", disj(p2, p3))),
    disj(modal("K", "a2", p2), modal("X", "a2", conj(p0, p3))),
    conj(modal("X", "a1", disj(p1, o1)), modal("K", "a1", neg(p3))),
    implies(modal("P", "a2", p3), modal("X", "a2", neg(p1))),
    disj(modal("P", "a1,a2", p3), modal("X", "a1,a2", neg(p1))),
)

FULL_OBS_FORMULAS = (
    modal("X", "a1,a2", p0),
    modal("U", "a1,a2", p1, p2),
    modal("W", "a1,a2", p0, p3),
    modal("F", "a1,a2", o1),
    modal("G", "a1,a2", disj(p1, p2)),
    conj(neg(modal("X", "a1,a2", p3)), modal("F", "a1,a2", p0)),
    modal("U", "a1,a2", disj(p0, p1), o2),
    disj(modal("G", "a1,a2", p2), modal("X", "a1,a2", modal("F", "a1,a2", p3))),
)


# How a workload's verdicts are checked: by the perfect-information fixpoint
# (exact on fully observable arenas), by direct evaluation of depth-1 formulas
# at the initial states, or against verdicts recorded from an earlier version.
PERFECT_INFORMATION = "perfect-information"
DEPTH_ONE = "depth-1"
RECORDED = "recorded"


class Workload:
    """A named list of base instances: instance i is family F with sizes[i]
    states drawn from Random(base_seed + i), paired with formulas[i % len]."""

    def __init__(self, name, base_seed, sizes, formulas, reference,
                 full_obs=False, witnesses=False):
        self.name = name
        self.base_seed = base_seed
        self.sizes = tuple(sizes)
        self.formulas = formulas
        self.reference = reference
        self.full_obs = full_obs
        self.witnesses = witnesses

    def base_instances(self):
        for i, n in enumerate(self.sizes):
            document = family_f_document(Random(self.base_seed + i), n, self.full_obs)
            yield document, self.formulas[i % len(self.formulas)]

    def documents(self, seed):
        """The run's instance documents and formulas, drawn from the seed."""
        rng = Random(seed)
        return [(isomorphic_copy(document, rng), formula)
                for document, formula in self.base_instances()]


WORKLOADS = {w.name: w for w in (
    Workload("nested-until", 10000, [6, 6, 6, 8] * 12, NESTED_UNTIL_FORMULAS, RECORDED),
    Workload("weak-witness", 20000, [6] * 60, WEAK_WITNESS_FORMULAS, RECORDED,
             witnesses=True),
    Workload("knowledge-split", 30000, [24, 32, 40] * 10, KNOWLEDGE_SPLIT_FORMULAS, DEPTH_ONE),
    Workload("full-obs-batch", 40000, [20] * 100, FULL_OBS_FORMULAS, PERFECT_INFORMATION,
             full_obs=True),
)}
