"""Scenario texts the benchmark sends, generated from the bundled files.

Every variant is a textual edit of the bundled sim1.scn or sim2.scn,
made at run time, so a change to a bundled scenario reaches the
benchmark.  An edit anchors on one exact line of the bundled text and
fails loudly when that line is gone, rather than producing a scenario
that silently means something else.  The expected answer of each
variant follows from the edit alone; nothing here runs the guard.
"""

from __future__ import annotations

from importlib import resources

# sim1 lines whose removal breaks one conjunct of the prevention
# condition for shooter -> victim, so the query must answer "no"
SIM1_ABLATIONS = {
    "no_prior_1_2": "  (prior 1 2)\n",
    "no_prior_2_3": "  (prior 2 3)\n",
    "no_overseer_knows": "  (knows ai 1 (knows shooter 1 (exists a' ",
    "no_occurrence": "(occurrences ((action shooter fire) 1))\n",
}

# sim2 effects every ranger already has; an extra fluent gets the same
# trigger, a positive utility and an intention, so it is a good effect
# that C3 must prove intended
SIM2_EFFECTS_PER_FLUENT = 4
SIM2_BASE_EFFECTS = 6
SIM2_BASE_NET_UTILITY = 3
_RANGERS = ("ranger1", "ranger2", "ranger3", "ranger4")


class TextEditError(Exception):
    """A bundled scenario no longer has the line an edit anchors on."""


def bundled_text(name: str) -> str:
    return (resources.files("modalguard") / "scenarios" / f"{name}.scn").read_text()


def _replace_once(text: str, old: str, new: str) -> str:
    found = text.count(old)
    if found != 1:
        raise TextEditError(f"expected one occurrence of {old!r}, found {found}")
    return text.replace(old, new)


def _drop_line(text: str, prefix: str) -> str:
    """Remove the one line that starts with prefix."""
    lines = text.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    if len(hits) != 1:
        raise TextEditError(f"expected one line starting {prefix!r}, found {len(hits)}")
    del lines[hits[0]]
    return "".join(lines)


def sim1_guilty(sim1: str) -> str:
    """sim1 with the victim no longer innocent: nothing obliges the
    shooter to refrain, so a complete search finds no proof."""
    return _drop_line(sim1, "  (innocent victim)")


def sim1_idle(sim1: str, k: int) -> str:
    """sim1 plus k agents and k goals that no fact mentions."""
    extra = "".join(f" (idle{i} Agent) (g_idle{i} Goal)" for i in range(1, k + 1))
    return _replace_once(sim1, "  (g_live Goal))\n", f"  (g_live Goal){extra})\n")


def sim1_ablation(sim1: str, name: str) -> str:
    return _drop_line(sim1, SIM1_ABLATIONS[name])


def sim2_extra_effects(sim2: str, m: int) -> str:
    """sim2 plus m fluents cover1..coverm, each initiated for every
    ranger by the shot, worth +1, and intended by ranger1."""
    fluents = [f"cover{j}" for j in range(1, m + 1)]
    functions = "".join(f"\n  ({f} Agent Fluent)" for f in fluents)
    text = _replace_once(
        sim2, "  (safe Agent Fluent))\n", f"  (safe Agent Fluent){functions})\n"
    )
    intends = "".join(
        f"\n  (intends ranger1 1 (holds ({f} {r}) 2))" for f in fluents for r in _RANGERS
    )
    text = _replace_once(
        text,
        "  (intends ranger1 1 (holds (safe ranger4) 2)))\n",
        f"  (intends ranger1 1 (holds (safe ranger4) 2)){intends})\n",
    )
    axioms = "".join(
        f"\n  ((action ranger1 shoot) initiates ({f} {r}) ((pos (neutralized assailant))))"
        for f in fluents
        for r in _RANGERS
    )
    last_axiom = (
        "  ((action ranger1 shoot) initiates (safe ranger4) "
        "((pos (neutralized assailant))))"
    )
    text = _replace_once(text, last_axiom + ")\n", last_axiom + axioms + ")\n")
    utilities = "".join(f"  (({f} _) pos 1)\n" for f in fluents)
    return _replace_once(text, "  ((safe _) pos 1)\n", "  ((safe _) pos 1)\n" + utilities)
