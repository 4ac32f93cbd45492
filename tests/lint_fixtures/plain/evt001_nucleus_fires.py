"""EVT001 positive: a nucleus phase nobody registered.

The nucleus decomposition vocabulary (``nucleus-peel``) lives in
``KNOWN_PHASES`` like every other phase;
inventing a new ``nucleus-*`` literal at an emission site without
registering it is exactly the typo EVT001 exists to catch.
"""

from repro.runtime.progress import ProgressEvent


def announce(progress, cells_done):
    progress(ProgressEvent("nucleus-reticulate", step=cells_done))
