"""Multi-UAV downlink coverage simulator with hybrid MADDPG+DQN resource allocation.

Modules:
    channel     air-to-ground link budget (geometry, LoS-mixed power, fading, rate)
    mobility    grid-constrained user movement toward attraction points
    clustering  silhouette-scored K-means and UAV identity matching
    env         per-frame multi-agent environment built from a cluster plan
                (UAVs over the centroids) and constraint mapping
    nn          dense networks with manual gradients and Adam
    learn       MADDPG + per-user DQN training machinery
    experiment  run harness, baselines, bandwidth oracle, file emission
    cli         command-line interface
"""

__version__ = "0.1.0"
