"""End-to-end approximate video store.

The facade tying every substrate together, in the paper's order:

    raw video
      -> encode (H.264-like, with trace)            [repro.codec]
      -> importance analysis (VideoApp)             [repro.core]
      -> partition into reliability streams         [repro.core]
      -> (optional) encrypt each stream             [repro.crypto]
      -> store each stream with its ECC on MLC PCM  [repro.storage]
      -> read back (errors!) -> decrypt -> merge -> decode

``put`` runs everything up to storage; ``read`` simulates the storage
round trip and decodes. Quality is then measured against ``reconstruct``
— the error-free decode — exactly like the paper's PSNR-vs-clean-coded
methodology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..errors import AnalysisError
from ..codec.config import EncoderConfig
from ..codec.decoder import Decoder
from ..codec.encoder import Encoder
from ..crypto.streams import StreamEncryptor
from ..storage.density import DensityReport
from ..storage.device import ApproximateDevice, ScrubPolicy, StorageReport
from ..storage.ecc import scheme_by_name
from ..storage.mlc import MLCCellModel
from ..video.frame import VideoSequence
from .assignment import PAPER_TABLE1, ClassAssignment
from .importance import (
    ImportanceResult,
    compute_importance,
    compute_importance_streaming,
)
from .partition import (
    ProtectedVideo,
    cipher_streams,
    map_stream_damage,
    merge_streams,
    partition_video,
    stream_damage,
)


@dataclass
class StoredVideo:
    """Everything ``put`` produced for one video."""

    protected: ProtectedVideo
    importance: ImportanceResult
    total_pixels: int
    encrypted: bool
    #: Streams as they sit on the device (ciphertext when encrypted).
    device_streams: Dict[str, bytes]

    def density(self) -> DensityReport:
        """Cells/pixel accounting of the stored video."""
        return self.protected.density(self.total_pixels)


class ApproximateVideoStore:
    """Store videos approximately; read them back with bounded damage."""

    def __init__(self, config: Optional[EncoderConfig] = None,
                 assignment: ClassAssignment = PAPER_TABLE1,
                 cell_model: Optional[MLCCellModel] = None,
                 encryptor: Optional[StreamEncryptor] = None,
                 exact_ecc: bool = False,
                 streaming_analysis: bool = False) -> None:
        """Args:
            config: encoder settings.
            assignment: importance-class -> ECC mapping (Table 1).
            cell_model: the MLC substrate to simulate.
            encryptor: optional per-stream encryption (CTR/OFB only).
            exact_ecc: run real BCH + cell Monte Carlo instead of the
                analytic failure model (slow; used for validation).
            streaming_analysis: compute importance GOP by GOP
                (Section 4.3.1's bounded-memory mode) instead of over
                the whole video at once; results are identical.
        """
        self.config = config or EncoderConfig()
        self.assignment = assignment
        self.cell_model = cell_model or MLCCellModel()
        self.encryptor = encryptor
        self.exact_ecc = exact_ecc
        self.streaming_analysis = streaming_analysis
        self._encoder = Encoder(self.config)
        self._decoder = Decoder()
        self._concealing_decoder: Optional[Decoder] = None
        self._last_storage_reports: Dict[str, StorageReport] = {}

    def __getstate__(self) -> dict:
        """Pickle only the store's identity, not its volatile state.

        The campaign journal hashes this pickle into the context digest
        (and workers deserialize it once per process), so the last
        read's diagnostic reports and the lazily built concealing
        decoder must not travel: they change after any read and would
        silently orphan a campaign journal on resume.
        """
        state = self.__dict__.copy()
        state["_last_storage_reports"] = {}
        state["_concealing_decoder"] = None
        return state

    @property
    def last_storage_reports(self) -> Dict[str, StorageReport]:
        """Per-stream :class:`StorageReport` of the most recent read.

        Empty before the first error-injecting read. Diagnostic only:
        never shipped to workers or folded into campaign digests.
        """
        return self._last_storage_reports

    # -- write path -------------------------------------------------------

    def put(self, video: VideoSequence) -> StoredVideo:
        """Encode, analyze, partition, and (optionally) encrypt."""
        encoded = self._encoder.encode(video)
        assert encoded.trace is not None
        if self.streaming_analysis:
            importance = compute_importance_streaming(encoded.trace)
        else:
            importance = compute_importance(encoded.trace)
        protected = partition_video(encoded, importance, self.assignment)
        device_streams = dict(protected.streams)
        if self.encryptor is not None:
            # Encryption happens after partitioning (the analysis must
            # see plaintext) and before the approximate device.
            device_streams = cipher_streams(self.encryptor.encrypt_streams,
                                            protected, device_streams)
        return StoredVideo(
            protected=protected,
            importance=importance,
            total_pixels=video.total_pixels,
            encrypted=self.encryptor is not None,
            device_streams=device_streams,
        )

    # -- read path ---------------------------------------------------------

    def read(self, stored: StoredVideo,
             rng: Optional[np.random.Generator] = None,
             inject_errors: bool = True,
             t_days: Optional[float] = None,
             scrub: Optional[ScrubPolicy] = None,
             read_retries: Optional[int] = None,
             conceal: bool = False) -> VideoSequence:
        """Simulate the storage round trip and decode.

        The lifetime knobs all default to the paper-faithful read:
        ``t_days`` reads the cells at a given retention time, ``scrub``
        applies a periodic-rewrite policy, ``read_retries`` arms the
        re-read ladder for detected-uncorrectable blocks, and
        ``conceal`` routes the surviving uncorrectable ranges into the
        decoder's error-concealment path instead of letting it entropy-
        decode known-garbage slices.
        """
        streams = stored.device_streams
        reports: Dict[str, StorageReport] = {}
        if inject_errors:
            device = ApproximateDevice(cell_model=self.cell_model,
                                       rng=rng or np.random.default_rng(),
                                       exact=self.exact_ecc,
                                       scrub=scrub,
                                       read_retries=read_retries)
            read_back: Dict[str, bytes] = {}
            # Iterate in sorted-name order so a seeded rng produces the
            # same flip pattern regardless of dict insertion order
            # (e.g. encrypted vs plaintext stores).
            for name in sorted(streams):
                scheme = scheme_by_name(name)
                read_back[name], reports[name] = device.store_and_read(
                    streams[name], scheme, t_days=t_days)
            streams = read_back
        if stored.encrypted:
            if self.encryptor is None:
                raise AnalysisError(
                    "stored video is encrypted but the store has no key")
            streams = cipher_streams(self.encryptor.decrypt_streams,
                                     stored.protected, streams)
        payloads = merge_streams(stored.protected, streams)
        corrupted = stored.protected.encoded.with_payloads(payloads)
        self._last_storage_reports = reports
        if not conceal:
            return self._decoder.decode(corrupted)
        damage = stream_damage(stored.protected, reports)
        frame_damage = map_stream_damage(stored.protected, damage) \
            if damage else {}
        if self._concealing_decoder is None:
            self._concealing_decoder = Decoder(conceal_uncorrectable=True)
        return self._concealing_decoder.decode(corrupted, frame_damage)

    # -- baselines -----------------------------------------------------------

    def reconstruct(self, stored: StoredVideo) -> VideoSequence:
        """Error-free decode (the paper's quality reference)."""
        return self._decoder.decode(stored.protected.encoded)
