"""The CLI's pinned outputs: one table, each row run in a fresh
``python -m incshap`` process under its timeout.

A row names its instance (``"trains"`` or a name in ``instances.NAMED``),
the arguments after ``--manifest``, the timeout in seconds, the exit code,
and stdout: the sha256 of a report or a refusal payload, or the literal
text of a count.  A report's sha256 also fixes its fact count and its
``efficiency_check``.  The digests were recorded on Python 3.11 and every
supported version must print the same bytes.
"""

from __future__ import annotations

import hashlib
import re
from decimal import Decimal
from typing import NamedTuple

import pytest

from conftest import fresh_cli


class Pin(NamedTuple):
    instance: str
    argv: str
    timeout: int
    code: int
    stdout: str


# Digests that more than one row pins: a budget that every search of a
# command fits leaves its report as the unbudgeted command prints it.
CLUSTERED_R = "ee9bd73023a84d53d5a2e4329c2c081f50ea4797c1c67981b820dfcfe47fca66"
CLUSTERED_MC = "a283f3da7ae8e5a915d7ccfe96e9bbba46ba9446296cc44eb377784903cb142e"
CLUSTERED_R57_R = "d8881754ba52d062f38517c945c547c57dd15f69e4b7416c800f0fa6cefdb268"

APPROX = "--all --method approx"

PINS = (
    # Exact reports on Trains, recorded from the per-fact exact engine that
    # preceded the block-local one.
    Pin("trains", "shapley --measure d --all", 60, 0,
        "27fcb03608580db09f6fb5658d1e49c23d92da894f0f012e507ab8957a209d30"),
    Pin("trains", "shapley --measure mi --all", 60, 0,
        "de27364740ec4211131c26c89255c925015ce6120792e78aaa039805dc0c9422"),
    Pin("trains", "shapley --measure p --all", 60, 0,
        "fa3466573f58711728e97be9a0242298833d97e286f9f127589d22f20a727669"),
    Pin("trains", "shapley --measure r --all", 60, 0,
        "102d6bb86ac577533ffe681ee0c8953efe6acf806aacb281eb90321597fc551d"),
    Pin("trains", "shapley --measure mc --all", 60, 0,
        "11e621ce4702100bcf16774e6232666d868840f0514f3ccd245c51d9a4573a65"),
    # Sampled reports on Trains, recorded from the per-fact sampler that
    # preceded the shared permutation walk.
    Pin("trains", f"shapley --measure d {APPROX} --seed 7", 60, 0,
        "e9a532292e94e7c05c3f0dfe8dab4525da04fac6c757cab2404afdd5bfef4b3a"),
    Pin("trains", f"shapley --measure mi {APPROX} --seed 7", 60, 0,
        "625315ab354db3506255bc79346235b55363383a5c74daadf56c0195184937d8"),
    Pin("trains", f"shapley --measure p {APPROX} --seed 7", 60, 0,
        "ac279404611d2c98c25635231d01751244af4aab3fc421875264973c76676bff"),
    Pin("trains", f"shapley --measure r {APPROX} --seed 7", 60, 0,
        "de4e4b78710b162ef15bce8c23bfa443532920e8779311920889f3a7b914c7d4"),
    Pin("trains", f"shapley --measure mc {APPROX} --seed 7", 60, 0,
        "9f1c95466b8d7850b6dc532b6676b200a381491dbe96ef70aec25b400a0df401"),
    # Ladders in level-1 blocks: 400 facts (40 blocks) recorded from the
    # weight fold with factorial scales and prefix and suffix products, and
    # 1000 facts (100 blocks): d and mc from the one-product fold, r before
    # the joins and blocks were multiplied through one product function.
    Pin("ladder400", "shapley --measure d --all", 60, 0,
        "e26b001269d5cf097cf037207e9d8e667d1603a4b6491973b598a2dc1a89fda2"),
    Pin("ladder400", "shapley --measure mc --all", 60, 0,
        "aa1cffb49b48b88b76347daabce3321a9bb18d64345d9c49e17c152e6f06a5d9"),
    Pin("ladder1000", "shapley --measure d --all", 30, 0,
        "112361f7359913c3fd89a17f7cab4b366b76b21c0603689326df92107d38f3bb"),
    Pin("ladder1000", "shapley --measure mc --all", 30, 0,
        "97793dea8e55614b296f3099fe3ec787969ce7e737b7fae561db10859063741d"),
    Pin("ladder1000", "shapley --measure r --all", 30, 0,
        "e09b227dbcff961219e4ae31390af5ee05bcc3b421caba8dd6bc29b51c061622"),
    # 120 facts in one level-1 block: each tree shape is folded once, in
    # well under a second; refolds that grow faster with the block time out.
    Pin("block120", "shapley --measure r --all", 60, 0,
        "460a64dced4109f1b381d2beef095b1388d0bceff80ceccd055c66578d998f88"),
    # One dense lhs group of 50 same-shaped children: r folds each child
    # shape once and shares one power per row; recorded before the powers
    # were shared.  Dense 2000 r is the slowest row, about 6 s.
    Pin("dense1000", "shapley --measure r --all", 20, 0,
        "fb5ddf8bbf9a0af786084caea7eac1b3dac1ab56a7a7edf5a753ee3325532944"),
    Pin("dense2000", "shapley --measure r --all", 40, 0,
        "1c985fab7e4a0d8af8654610c7948448bbb91248ccab1dbb862e9a8b7e69d67f"),
    # mi and p read 4000 facts' conflicts from group counts, with none of
    # the 7.8M conflict edges: C(4000, 2) - 50 C(80, 2) pairs, and every fact
    # has a partner.  The reports were recorded while reports were still
    # rendered by json.dumps(indent=2).
    Pin("dense4000", "measure --measure mi", 20, 0, "7840000\n"),
    Pin("dense4000", "measure --measure p", 20, 0, "4000\n"),
    Pin("dense4000", "shapley --measure mi --all", 20, 0,
        "861080157383069a0e983f03677c9b8c4d2a6f39bc7190116421835a9aae3dec"),
    Pin("dense4000", "shapley --measure p --all", 20, 0,
        "31fe8dfda51410a80950035a3644df8e98fbdb5a66110af57dad5d5bc8bac17a"),
    # The d total is 1 iff some lhs group holds a conflict: no tree.
    Pin("dense4000", "measure --measure d", 20, 0, "1\n"),
    # 3^9100 repairs: a 4342-digit count, past CPython's default
    # int-to-string limit, which the CLI lifts (Decimal prints past it too).
    Pin("groups9100", "measure --measure mc", 20, 0, f"{Decimal(3**9100)}\n"),
    # The sampler's masks on 1.96M conflict edges come from group counts.
    Pin("dense2000", f"shapley --measure d {APPROX} --seed 0", 10, 0,
        "5ef1118ef653ae3ff89d2e608292a170b044fa3e57405ac8b954180e1c61804a"),
    # A -> C, B -> C has no lhs chain: sampled r and mc steps search the
    # connected part the added fact joins.  Recorded from the sampler that
    # re-split the whole region of each added fact into connected parts.
    Pin("clustered120", f"shapley --measure d {APPROX}", 60, 0,
        "c5e4955f4298cdc554e5b8a2583f2298c020e6e4fe259e1bb843dcaa00efb2d9"),
    Pin("clustered120", f"shapley --measure r {APPROX}", 60, 0, CLUSTERED_R),
    Pin("clustered120", f"shapley --measure mc {APPROX}", 60, 0, CLUSTERED_MC),
    # The total shares the walk's memo, so a budget that every sampled step
    # fits also fits the total.  9 (r) and 16 (mc) are the least budgets
    # that finish the walk; one node less refuses.
    Pin("clustered120", f"shapley --measure r {APPROX} --budget 10", 60, 0, CLUSTERED_R),
    Pin("clustered120", f"shapley --measure r {APPROX} --budget 9", 60, 0, CLUSTERED_R),
    Pin("clustered120", f"shapley --measure r {APPROX} --budget 8", 60, 2,
        "b3a4add60f5eebc11b7cb64d3c8a8b3fc8b65baba6e9018c4a430a33cfcd5a5b"),
    Pin("clustered120", f"shapley --measure mc {APPROX} --budget 16", 60, 0, CLUSTERED_MC),
    Pin("clustered120", f"shapley --measure mc {APPROX} --budget 15", 60, 2,
        "345c73e3174f332b3a712700f076c1a388d67de49aefce8c40ce18396803152b"),
    # One fact's walk takes the join steps of the --all walk and stops after
    # that fact, so it fits the --all walk's budget.  Recorded from the
    # sampler that split the prefix before the fact into connected parts.
    Pin("clustered120", "shapley --fact R:57 --measure d --method approx", 60, 0,
        "81f5eeaf369c7a19af11216a27cf7ffd96aaf6b7a9828ece78c7d1c0d629ecb1"),
    Pin("clustered120", "shapley --fact R:57 --measure r --method approx", 60, 0,
        CLUSTERED_R57_R),
    Pin("clustered120", "shapley --fact R:57 --measure mc --method approx", 60, 0,
        "4fa951d8ddf44e91c028b53b990af1f66e4114aa5157d9e9d79f0be6e821476b"),
    Pin("clustered120", "shapley --fact R:57 --measure r --method approx --budget 10", 60, 0,
        CLUSTERED_R57_R),
    # The whole-database r and mc search each connected part on a node
    # counter of its own; the costliest spends 21 (r) and 19 (mc) nodes.
    Pin("clustered120", "measure --measure r --budget 21", 60, 0, "68\n"),
    Pin("clustered120", "measure --measure mc --budget 19", 60, 0, "2576078489600\n"),
    Pin("clustered120", "measure --measure r --budget 20", 60, 2,
        "72f1356be90e668e8f6e64c9eb0e0bf841ff25e3aca8ea318f078ebe0870abc7"),
    Pin("clustered120", "measure --measure mc --budget 18", 60, 2,
        "af633cd6ec1df656a0d76477e79953a3a20f72474cef2d4c816c5824f9231fbd"),
    # The d total runs no search on any FD class, so no budget refuses it.
    Pin("clustered120", "measure --measure d --budget 0", 60, 0, "1\n"),
    # The oracle at its subset limit (18 facts) and its permutation limit
    # (8 facts): one table of the 2^n coalition values serves every fact.
    # The 18-fact reports were recorded while reports were still rendered
    # by json.dumps(indent=2).
    Pin("clustered18", "oracle --measure mc --all", 15, 0,
        "06e2abc2d73641df08e1476683bde3550f5e12b36534bab14a2915cf9afcadf5"),
    Pin("clustered18", "oracle --measure r --all", 15, 0,
        "1eb3cb78d7a20c99563ecc3e0eac4aebf43a1a5c8c8dfc94428df311835dd848"),
    Pin("clustered8", "oracle --measure mc --form perms --all", 15, 0,
        "8b0723fee8a5a2e5006e7e788a4c693bca50350a4448f8dd95b24cb2d2ddd6d6"),
    Pin("clustered8", "oracle --measure r --form perms --all", 15, 0,
        "ab6978823957c1fbd85140f35db5ee4ded7da8a7db5d3e50dea13331abf49fca"),
)

_SHA256 = re.compile("[0-9a-f]{64}")


def pinned(instance: str, argv: str) -> Pin:
    """The row of ``instance`` and ``argv``."""
    (pin,) = (pin for pin in PINS if (pin.instance, pin.argv) == (instance, argv))
    return pin


def check(pin: Pin, code: int, stdout: str) -> None:
    """Assert that a run of ``pin``'s command exited with its code and
    printed its stdout, by sha256 where the row pins one."""
    assert code == pin.code
    if _SHA256.fullmatch(pin.stdout):
        assert hashlib.sha256(stdout.encode()).hexdigest() == pin.stdout
    else:
        assert stdout == pin.stdout


def run_pin(pin: Pin, manifest_of) -> tuple[int, str]:
    code, out, _ = fresh_cli(["--manifest", manifest_of(pin.instance), *pin.argv.split()],
                             timeout=pin.timeout)
    return code, out


@pytest.mark.parametrize("pin", PINS, ids=lambda pin: f"{pin.instance} {pin.argv}")
def test_pin(pin, manifest_of):
    check(pin, *run_pin(pin, manifest_of))


def test_check_refuses_a_wrong_digest_or_exit_code(manifest_of):
    """The check fails on a run that differs from its row in one hex digit
    of the digest or in the exit code, so it hashes the stream it pins."""
    pin = pinned("trains", "shapley --measure d --all")
    code, out = run_pin(pin, manifest_of)
    check(pin, code, out)
    digit = "0" if pin.stdout[-1] != "0" else "1"
    for wrong in (pin._replace(stdout=pin.stdout[:-1] + digit), pin._replace(code=2)):
        with pytest.raises(AssertionError):
            check(wrong, code, out)
