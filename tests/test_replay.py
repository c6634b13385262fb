"""Seeds 1-3 of the three benchmark workloads replayed through the whole
pipeline, as `glf analyze` and the REPL run it: each sentence's readings
are constructed and printed, asserted into the belief state (a fresh one
per sentence for the one-shot workloads, one per session for
`discourse`), and the models extracted and rendered.

A change to how glf computes must leave what it answers alone. Each
digest is the sha256 of the rendered readings, the rendered models and
the `exhausted` flags of one workload and seed, recorded before the
chart compiled empty categories out and the normalizer formed contexts
for repeated prefixes. The history and branch counts are left out, since
merging equal branches may change them.
"""

import hashlib

import pytest

from glf.bridge import construct_semantics
from glf.corpus import fragment_dir
from glf.kernel.terms import show
from glf.modsys import print_term
from glf.shell.loader import initial_state, load_fragment
from glf.tableau import extract_models, update_belief_state
from helpers import benchmark_workload

DIGESTS = {
    ("coordination", 1): "21b43bf6eb446c95ef571a8d9eb38f8900496e0d6af97d5418dde4f82ab76a32",
    ("coordination", 2): "3c4645c0a8fcfc3b81adf16265cf20f407554f393c71b0756fa170175369d660",
    ("coordination", 3): "31bd060d60ca2e65ce3104095a5c71c33b4198574fea61ceb882a4d3fa140b29",
    ("modal_depth", 1): "dd985844fcfe6269a623f8b0c11648b2a34168fabad01284ebe421faff2aa5f5",
    ("modal_depth", 2): "a9c5664f1d3777e396d2728922c5c19d961dd1d0acd2d7d0c01b537a2ba9bc59",
    ("modal_depth", 3): "ce43bea627dcced5f9c67c48b129a7989b67f9cae2ccc1ec08d237294620c132",
    ("discourse", 1): "373c28e302b15ff59a7bebf951a5c5f87da10afde719e4698dac266d8ad26818",
    ("discourse", 2): "e3b55325ef966dfd6ab8779a00c60172eee154597e5ebf6e2c597418fb963e82",
    ("discourse", 3): "c65297f6f837d9f58a9f543cae06feed98bda3659c83ccca88db011f9d53346c",
}


def replay(name: str, seed: int) -> str:
    workload = benchmark_workload(name, seed)
    fragment = load_fragment(fragment_dir(workload.fragment))
    flat = fragment.target_flat
    digest = hashlib.sha256()
    for session in workload.sessions:
        state = initial_state(fragment)
        for sentence in session:
            readings = construct_semantics(fragment, sentence.text)
            state = update_belief_state(state, [r.term for r in readings if r.in_target_logic])
            lines = [sentence.text]
            lines += [f"{show(r.ast)} | {print_term(flat, r.term)} | {r.in_target_logic} | "
                      + "; ".join(r.diagnostics) for r in readings]
            lines += [", ".join(lit.render(state.signature.flat) for lit in model)
                      for model in extract_models(state)]
            lines.append(f"exhausted: {state.exhausted}")
            digest.update("\n".join(lines + [""]).encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["coordination", "modal_depth", "discourse"])
def test_outputs_match_the_recorded_digests(name, seed):
    assert replay(name, seed) == DIGESTS[name, seed]
