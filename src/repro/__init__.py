"""Wi-Vi reproduction: see through walls with Wi-Fi.

A full implementation of the system from *"See Through Walls with
Wi-Fi!"* (Adib & Katabi, ACM SIGCOMM 2013 / MIT SM thesis 2013): MIMO
interference nulling to remove the flash effect, ISAR tracking with
smoothed MUSIC, spatial-variance human counting, and the through-wall
gesture channel — plus the physics-level RF/SDR simulator that stands
in for the paper's USRP testbed (see DESIGN.md for the substitution
rationale).

Quick start::

    import numpy as np
    from repro import (
        ChannelSeriesSimulator, Scene, Human, RandomWaypointTrajectory,
        compute_spectrogram, stata_conference_room_small,
    )

    rng = np.random.default_rng(0)
    room = stata_conference_room_small()
    human = Human(RandomWaypointTrajectory(room, rng, duration_s=10.0))
    scene = Scene(room=room, humans=[human])
    series = ChannelSeriesSimulator(scene, rng=rng).simulate(10.0)
    spectrogram = compute_spectrogram(series.samples)
"""

from repro.core.association import (
    AngleTracker,
    Track,
    TrackerConfig,
    count_simultaneous_tracks,
    extract_observations,
    track_spectrogram,
)
from repro.core.beamforming import (
    beamformed_spectrogram,
    default_theta_grid,
    element_spacing_m,
    inverse_aoa_spectrum,
    steering_vector,
)
from repro.core.counting import (
    SpatialVarianceClassifier,
    confusion_matrix,
    spatial_centroid,
    spatial_variance,
    trace_spatial_variance,
)
from repro.core.detection import motion_energy_db, motion_present, peak_to_dc_ratio_db
from repro.core.gestures import (
    GestureDecodeResult,
    GestureDecoder,
    angle_signed_signal,
    matched_filter_bank,
    triangle_template,
)
from repro.core.messaging import (
    bits_to_text,
    decode_message,
    encode_message,
    text_to_bits,
)
from repro.core.music import (
    MusicResult,
    estimate_source_count,
    smoothed_correlation_matrix,
    smoothed_music_spectrum,
)
from repro.core.nulling import (
    NullingResult,
    NullingRetryOutcome,
    iterative_nulling_residuals,
    run_nulling,
    run_nulling_with_retry,
)
from repro.core.localization import integrate_track, summarize_tracks
from repro.core.monitoring import (
    BlockHealth,
    DeviceHealth,
    HealthStateMachine,
    NullingMonitor,
    ResilientDevice,
    sanitize_series,
    screen_block,
)
from repro.errors import (
    CalibrationError,
    CaptureQualityError,
    DegenerateCovarianceError,
    DeviceFailedError,
    ReproError,
)
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
)
from repro.core.tracking import (
    MotionSpectrogram,
    TrackingConfig,
    compute_beamformed_spectrogram,
    compute_diversity_spectrogram,
    compute_spectrogram,
)
from repro.ofdm.phy import OfdmPhy, PhyConfig
from repro.environment.geometry import Point
from repro.environment.human import BodyModel, Human
from repro.environment.scene import DeviceGeometry, Scene
from repro.environment.trajectories import (
    GestureTrajectory,
    LinearTrajectory,
    RandomWaypointTrajectory,
    StationaryTrajectory,
    WaypointTrajectory,
)
from repro.environment.walls import (
    Room,
    Wall,
    fairchild_room,
    stata_conference_room_large,
    stata_conference_room_small,
)
from repro.rf.materials import MATERIALS, Material, material_by_name
from repro.simulator.experiment import (
    ExperimentConfig,
    Subject,
    counting_trial,
    gesture_trial,
    make_subject_pool,
    tracking_trial,
)
from repro.simulator.device import WiViDevice, WiViDeviceConfig
from repro.simulator.timeseries import (
    ChannelSeries,
    ChannelSeriesSimulator,
    TimeSeriesConfig,
)
from repro.simulator.waveform import SimulatedNullingLink, WaveformLinkConfig

__version__ = "1.0.0"

__all__ = [
    "AngleTracker",
    "BlockHealth",
    "BodyModel",
    "CalibrationError",
    "CaptureQualityError",
    "ChannelSeries",
    "ChannelSeriesSimulator",
    "DegenerateCovarianceError",
    "DeviceFailedError",
    "DeviceGeometry",
    "DeviceHealth",
    "ExperimentConfig",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultSchedule",
    "GestureDecodeResult",
    "GestureDecoder",
    "GestureTrajectory",
    "HealthStateMachine",
    "Human",
    "LinearTrajectory",
    "MATERIALS",
    "Material",
    "MotionSpectrogram",
    "MusicResult",
    "NullingMonitor",
    "NullingResult",
    "NullingRetryOutcome",
    "OfdmPhy",
    "PhyConfig",
    "Point",
    "RandomWaypointTrajectory",
    "ReproError",
    "ResilientDevice",
    "Room",
    "Scene",
    "SimulatedNullingLink",
    "SpatialVarianceClassifier",
    "StationaryTrajectory",
    "Subject",
    "TimeSeriesConfig",
    "Track",
    "TrackerConfig",
    "TrackingConfig",
    "Wall",
    "WaveformLinkConfig",
    "WaypointTrajectory",
    "WiViDevice",
    "WiViDeviceConfig",
    "angle_signed_signal",
    "beamformed_spectrogram",
    "bits_to_text",
    "compute_beamformed_spectrogram",
    "compute_diversity_spectrogram",
    "compute_spectrogram",
    "confusion_matrix",
    "count_simultaneous_tracks",
    "counting_trial",
    "decode_message",
    "default_theta_grid",
    "element_spacing_m",
    "encode_message",
    "estimate_source_count",
    "extract_observations",
    "fairchild_room",
    "gesture_trial",
    "integrate_track",
    "inverse_aoa_spectrum",
    "iterative_nulling_residuals",
    "make_subject_pool",
    "matched_filter_bank",
    "material_by_name",
    "motion_energy_db",
    "motion_present",
    "peak_to_dc_ratio_db",
    "run_nulling",
    "run_nulling_with_retry",
    "sanitize_series",
    "screen_block",
    "smoothed_correlation_matrix",
    "smoothed_music_spectrum",
    "spatial_centroid",
    "spatial_variance",
    "stata_conference_room_large",
    "stata_conference_room_small",
    "steering_vector",
    "summarize_tracks",
    "text_to_bits",
    "trace_spatial_variance",
    "track_spectrogram",
    "tracking_trial",
    "triangle_template",
]
