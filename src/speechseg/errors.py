"""Exception types raised by the toolkit, and the text decoding that
every text reader shares.

Every error carries the failing condition in its message; the CLI maps any
SpeechSegError subclass to exit status 1 and prints the class name. A file
that cannot be opened, read or written raises Python's own OSError, which
the CLI reports the same way.
"""
from __future__ import annotations

from pathlib import Path


class SpeechSegError(Exception):
    """Base class for all toolkit errors."""


# -- audio / feature front-end ------------------------------------------------

class UnsupportedEncoding(SpeechSegError):
    """WAV file uses a codec other than PCM16 or IEEE float, or a text
    file is not UTF-8."""


class ChannelMismatch(SpeechSegError):
    """Multi-channel audio where mono is required."""


class TruncatedFile(SpeechSegError):
    """File ends before the length declared in its header."""


class AudioTooShort(SpeechSegError):
    """Audio shorter than one analysis frame."""


class InvalidConfig(SpeechSegError):
    """Configuration violates a documented constraint."""


class EmptyFeatures(SpeechSegError):
    """Feature matrix with zero frames where at least one is required."""


# -- embedding network --------------------------------------------------------

class BadMagic(SpeechSegError):
    """File does not start with the expected magic bytes."""


class DimMismatch(SpeechSegError):
    """Layer or vector dimensions do not chain consistently."""


class NonFiniteWeight(SpeechSegError):
    """Weight file contains NaN or infinity."""


class EmptyInput(SpeechSegError):
    """Operation requires at least one frame or vector."""


class CorruptArchive(SpeechSegError):
    """Checksum mismatch or malformed record structure."""


# -- classifier ---------------------------------------------------------------

class NonFiniteInput(SpeechSegError):
    """Input vector contains NaN or infinity."""


class SingleClassData(SpeechSegError):
    """Training data does not contain both classes."""


class NonConvergence(SpeechSegError):
    """Optimizer failed to converge within the iteration budget."""


class CalibrationDegenerate(SpeechSegError):
    """Calibration impossible: scores carry no usable signal."""


class NoNegatives(SpeechSegError):
    """Threshold selection requires at least one negative example."""


# -- segments -----------------------------------------------------------------

class UnsortedInput(SpeechSegError):
    """Segment or word list violates its sortedness precondition."""


class SegmentOutOfBounds(SpeechSegError):
    """Segment extends outside the stream interval."""


class InvalidSegment(SpeechSegError):
    """Segment or segment-file line with non-finite, unparsable or
    out-of-order bounds, or the wrong number of fields."""


# -- metrics ------------------------------------------------------------------

class DegenerateLabels(SpeechSegError):
    """ROC requires at least one positive and one negative."""


class LengthMismatch(SpeechSegError):
    """Paired sequences have different lengths."""


class EmptyReference(SpeechSegError):
    """Reference transcript has zero words."""


class ZeroTotal(SpeechSegError):
    """Word error rate undefined for an empty reference count."""


# -- dataset preparation ------------------------------------------------------

class EmptyClass(SpeechSegError):
    """A class required by the split has no entries."""


class InsufficientSources(SpeechSegError):
    """Too few distinct sources to place one in every split."""


# -- analysis -----------------------------------------------------------------

class DegenerateData(SpeechSegError):
    """Input carries zero total variance."""


class PerplexityTooLarge(SpeechSegError):
    """Perplexity incompatible with the number of points."""


# -- text files ---------------------------------------------------------------

def read_text(path: str | Path) -> str:
    """The UTF-8 text of a file, read with open()'s newline handling; a
    byte that is not UTF-8 raises UnsupportedEncoding naming the file."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise UnsupportedEncoding(
            f"{path}: not UTF-8 text (byte {e.object[e.start]:#04x} "
            f"at offset {e.start})"
        ) from None
