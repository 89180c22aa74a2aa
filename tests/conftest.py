import os

# One BLAS thread for the whole test session: the kernel's GEMMs are small,
# and OpenBLAS threads that busy-wait on a shared machine slow a step down.
# OpenBLAS reads these once, when numpy first loads it, so they are set
# before anything below imports numpy; a value set outside is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

from mixpretrain import corpus as C
from mixpretrain import load_bundled_lexicon


@pytest.fixture(scope="session")
def lexicon():
    return load_bundled_lexicon()


@pytest.fixture(scope="session")
def small_corpus():
    # no hidden objects: labels are exhaustive over rendered content
    return C.synth_corpus(seed=11, n_images=60, hidden_rate=0.0)


@pytest.fixture(scope="session")
def hidden_corpus():
    return C.synth_corpus(seed=13, n_images=60, hidden_rate=0.3)
