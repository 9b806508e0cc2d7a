"""The named choices of the command line and the configs, in one module
that imports nothing, so the parser and ``report`` load no numerical code.

The modules that check these values re-export them: ``dataio.STREAMS``,
``loading.NORMS``, ``pipeline.FUSION_MODES``, ``kernels.KERNEL_KINDS``,
``kernels.VARIANT_ALIASES``, ``kernels.CONCATENATION`` and
``kernels.AVERAGING``, ``simplex.INIT_SCHEMES``.
"""

STREAMS = ("appearance", "motion")

# per-row feature and per-node vector normalisations
NORMS = ("none", "l2")

FUSION_MODES = ("kernel-avg", "score-avg")

KERNEL_KINDS = ("rbf", "linear")

# the two ways node kernels combine, and the aliases CLI surfaces accept
CONCATENATION = "concatenation"
AVERAGING = "averaging"
VARIANT_ALIASES = {"concat": CONCATENATION, "avg": AVERAGING,
                   CONCATENATION: CONCATENATION, AVERAGING: AVERAGING}

# weight initialisations accepted by SimplexWeights.init and the trainers
INIT_SCHEMES = ("uniform", "random")
