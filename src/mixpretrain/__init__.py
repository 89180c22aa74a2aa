"""mixpretrain: a desk-scale image-text pre-training workbench.

Builds cross-modal and object-aware training tasks from annotation corpora,
trains a miniature encoder-decoder transformer on equal-weight task mixtures,
and evaluates generated text with open-vocabulary exact match and CIDEr.
"""

import contextlib
import os
import shutil

__version__ = "0.1.0"


class InputError(ValueError):
    """A fault in an input the program reads: a config value or flag, an
    annotation, corpus, vocab, checkpoint, metrics or scoring file.  The
    message names the file or config section at fault.  The CLI exits 2 on
    it; any other exception but a runtime training fault is a bug."""


@contextlib.contextmanager
def atomic_write(path, mode="w", **kwargs):
    """Open ``<path>.tmp`` for writing and rename it over ``path`` once the
    block finishes, so ``path`` holds the previous file or the complete new
    one, never a part.  If the block raises, the temp file is removed."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


@contextlib.contextmanager
def staged_dir(path):
    """Yield ``<path>.tmp``, a fresh empty directory, and put it in place of
    ``path`` once the block finishes, so ``path`` holds exactly the files the
    block wrote.  If the block raises, the staging directory is removed and
    ``path`` is left as it was.  A staging directory left by a killed process
    is cleared first."""
    tmp = f"{path}.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        yield tmp
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(path, ignore_errors=True)
    os.replace(tmp, path)


def bundled_lexicon_path():
    """Path of the lexicon TSV covering the synthetic object vocabulary."""
    return os.path.join(os.path.dirname(__file__), "data", "synthetic_lexicon.tsv")


def load_bundled_lexicon():
    from .corpus import build_lexicon

    with open(bundled_lexicon_path()) as f:
        return build_lexicon(f)
