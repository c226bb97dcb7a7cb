"""Hot weight swaps against concurrent batched readers.

Two reader threads score through one shared :class:`MicroBatcher`
while a writer alternates ``load_state_dict`` between two states of
the same L-IMCAT model.  The version-keyed representation cache must
never hand out a ranking computed from half-loaded weights: every
answer equals one state's reference ranking, and once the writer stops
every answer equals the final state's.  Under ``REPRO_SANITIZE=1`` the
cache's ``@shared_state`` writes also run the lockset check.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.bench import MODEL_BUILDERS
from repro.core import IMCAT, IMCATConfig
from repro.eval.metrics import rank_items
from repro.serve import MicroBatcher

TOP_N = 10
USERS = list(range(8))
SWAPS = 30
READS_AFTER = 20


def build(dataset, split, seed):
    rng = np.random.default_rng(seed)
    backbone = MODEL_BUILDERS["LightGCN"](dataset, split, 8, rng)
    return IMCAT(backbone, dataset, split.train,
                 IMCATConfig(num_intents=2), rng=rng)


def rankings(model):
    scores = model.all_scores(np.array(USERS))
    return {user: rank_items(scores[user], set(), TOP_N) for user in USERS}


def test_readers_see_whole_states_across_swaps(small_dataset, small_split):
    states = [build(small_dataset, small_split, seed).state_dict()
              for seed in (1, 2)]
    expected = [rankings(build(small_dataset, small_split, seed))
                for seed in (1, 2)]
    assert any(not np.array_equal(expected[0][u], expected[1][u])
               for u in USERS)

    model = build(small_dataset, small_split, 0)
    model.load_state_dict(states[0])
    model.eval()
    batcher = MicroBatcher(lambda: model, max_batch=4, max_wait=0.0005)
    writing = threading.Event()
    writing.set()
    errors = []
    answers = [0, 0]

    def read(user, slot):
        items = batcher.recommend(user, top_n=TOP_N)
        matches = [np.array_equal(items, ranks[user]) for ranks in expected]
        answers[slot] += 1
        return matches

    def reader(slot):
        try:
            step = 0
            while writing.is_set():
                user = USERS[(step + slot) % len(USERS)]
                step += 1
                assert any(read(user, slot)), f"torn ranking for user {user}"
        except BaseException as err:  # noqa: BLE001 - re-raised below
            errors.append(err)

    threads = [threading.Thread(target=reader, args=(slot,))
               for slot in range(2)]
    for thread in threads:
        thread.start()
    try:
        for swap in range(SWAPS):
            model.load_state_dict(states[(swap + 1) % 2])
            # Let both readers answer under this state before the next
            # swap (bounded, so a dead reader cannot hang the test).
            seen = list(answers)
            for _ in range(2000):
                if all(a > b for a, b in zip(answers, seen)) or errors:
                    break
                time.sleep(0.0005)
    finally:
        writing.clear()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    assert min(answers) > 0

    final = SWAPS % 2
    for step in range(READS_AFTER):
        user = USERS[step % len(USERS)]
        assert read(user, 0)[final], f"stale ranking for user {user}"
