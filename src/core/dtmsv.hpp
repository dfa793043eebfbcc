// Umbrella header: pulls in the full dtmsv public API.
//
// Downstream users who want a single include:
//   #include "core/dtmsv.hpp"
// Individual module headers remain the preferred includes inside this
// repository (smaller translation units, clearer dependencies).
#pragma once

// Substrates.
#include "util/clock.hpp"       // IWYU pragma: export
#include "util/csv.hpp"         // IWYU pragma: export
#include "util/error.hpp"       // IWYU pragma: export
#include "util/rng.hpp"         // IWYU pragma: export
#include "util/stats.hpp"       // IWYU pragma: export
#include "util/table.hpp"       // IWYU pragma: export

#include "nn/activations.hpp"   // IWYU pragma: export
#include "nn/conv1d.hpp"        // IWYU pragma: export
#include "nn/linear.hpp"        // IWYU pragma: export
#include "nn/loss.hpp"          // IWYU pragma: export
#include "nn/optimizer.hpp"     // IWYU pragma: export
#include "nn/pooling.hpp"       // IWYU pragma: export
#include "nn/sequential.hpp"    // IWYU pragma: export
#include "nn/serialize.hpp"     // IWYU pragma: export

#include "rl/ddqn.hpp"          // IWYU pragma: export

#include "clustering/kmeans.hpp"     // IWYU pragma: export
#include "clustering/metrics.hpp"    // IWYU pragma: export
#include "clustering/selectors.hpp"  // IWYU pragma: export

#include "mobility/campus_map.hpp"      // IWYU pragma: export
#include "mobility/random_waypoint.hpp" // IWYU pragma: export

#include "wireless/channel.hpp"    // IWYU pragma: export
#include "wireless/cqi.hpp"        // IWYU pragma: export
#include "wireless/multicast.hpp"  // IWYU pragma: export

#include "video/catalog.hpp"    // IWYU pragma: export
#include "video/dataset.hpp"    // IWYU pragma: export
#include "video/transcode.hpp"  // IWYU pragma: export

#include "behavior/preference.hpp"  // IWYU pragma: export
#include "behavior/session.hpp"     // IWYU pragma: export

#include "twin/collector.hpp"     // IWYU pragma: export
#include "twin/column_store.hpp"  // IWYU pragma: export

#include "analysis/popularity.hpp"  // IWYU pragma: export
#include "analysis/recommend.hpp"   // IWYU pragma: export
#include "analysis/swiping.hpp"     // IWYU pragma: export

#include "predict/baselines.hpp"          // IWYU pragma: export
#include "predict/channel_predictor.hpp"  // IWYU pragma: export
#include "predict/demand.hpp"             // IWYU pragma: export
#include "predict/planner.hpp"            // IWYU pragma: export

// The paper's contribution.
#include "core/feature_compressor.hpp"  // IWYU pragma: export
#include "core/fleet.hpp"               // IWYU pragma: export
#include "core/group_constructor.hpp"   // IWYU pragma: export
#include "core/pipeline.hpp"            // IWYU pragma: export
#include "core/scenarios.hpp"           // IWYU pragma: export
#include "core/simulation.hpp"          // IWYU pragma: export
