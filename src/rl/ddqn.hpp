// Double deep Q-network (van Hasselt et al.) — the learning component the
// paper uses to "determine the grouping number by mining users' similarities".
//
// The agent is domain-agnostic: states are float vectors, actions are a
// discrete range. The grouping-specific state/action/reward encoding lives
// in core/group_constructor.*.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "rl/replay_buffer.hpp"
#include "util/rng.hpp"

namespace dtmsv::rl {

/// Linear epsilon decay schedule for epsilon-greedy exploration.
class EpsilonSchedule {
 public:
  /// Decays from `start` to `end` over `decay_steps` calls to value().
  EpsilonSchedule(double start, double end, std::size_t decay_steps);

  /// Epsilon at `step`.
  double value(std::size_t step) const;

 private:
  double start_;
  double end_;
  std::size_t decay_steps_;
};

/// DDQN hyperparameters.
struct DdqnConfig {
  std::size_t state_dim = 0;
  std::size_t action_count = 0;
  std::vector<std::size_t> hidden = {64, 64};
  double gamma = 0.9;                  // discount
  double learning_rate = 1e-3;
  std::size_t batch_size = 32;
  std::size_t replay_capacity = 4096;
  std::size_t min_replay_before_train = 64;
  std::size_t target_sync_every = 100;  // hard sync period (train steps)
  double grad_clip_norm = 10.0;
  double epsilon_start = 1.0;
  double epsilon_end = 0.05;
  std::size_t epsilon_decay_steps = 2000;
};

/// Double DQN agent with uniform replay and a hard-synced target network.
class DdqnAgent {
 public:
  /// Builds online and target MLPs (ReLU hidden layers) from `seed`.
  DdqnAgent(const DdqnConfig& config, std::uint64_t seed);

  /// Epsilon-greedy action selection; `explore=false` gives the greedy arm
  /// and leaves the epsilon schedule untouched (evaluation rollouts do not
  /// consume the exploration budget).
  std::size_t act(std::span<const float> state, bool explore = true);

  /// Greedy action without advancing the exploration step counter.
  std::size_t greedy_action(std::span<const float> state);

  /// Q-values for a single state.
  std::vector<float> q_values(std::span<const float> state);

  /// Q-values for `n` states packed row-major (n × state_dim floats) —
  /// one forward pass for the whole fleet batch instead of n single-row
  /// forwards, rows staged into a reused scratch tensor. Row i of the
  /// returned [n, action_count] tensor is bit-identical to
  /// q_values(states[i]) (the batch and single-row matmul paths share the
  /// same per-element accumulation chain).
  nn::Tensor q_values_batch(std::span<const float> states, std::size_t n);

  /// Greedy actions for a packed batch via one forward; ties resolve to
  /// the lowest action index, matching greedy_action. Does not touch the
  /// epsilon schedule.
  std::vector<std::size_t> greedy_actions(std::span<const float> states,
                                          std::size_t n);

  /// Stores a transition in the replay buffer.
  void observe(Transition t);

  /// One gradient step on a replay minibatch. Returns the loss, or nullopt
  /// when the buffer has not reached min_replay_before_train yet.
  std::optional<float> train_step();

  const DdqnConfig& config() const { return config_; }
  std::size_t action_steps() const { return action_steps_; }
  std::size_t train_steps() const { return train_steps_; }
  double current_epsilon() const;
  std::size_t replay_size() const { return replay_.size(); }

  /// Access to the online network (serialisation, tests).
  nn::Sequential& online_network() { return *online_; }
  nn::Sequential& target_network() { return *target_; }

 private:
  nn::Tensor batch_states(const std::vector<const Transition*>& batch, bool next) const;
  /// Stages `n` states in batch_state_ and runs the online network; the
  /// result is the network's own output buffer (valid until its next
  /// forward).
  const nn::Tensor& forward_batch(std::span<const float> states, std::size_t n);

  DdqnConfig config_;
  util::Rng rng_;
  std::unique_ptr<nn::Sequential> online_;
  std::unique_ptr<nn::Sequential> target_;
  std::unique_ptr<nn::Adam> optimizer_;
  ReplayBuffer replay_;
  EpsilonSchedule epsilon_;
  std::size_t action_steps_ = 0;
  std::size_t train_steps_ = 0;
  nn::Tensor single_state_;  // reused [1, state_dim] staging for act/q_values
  nn::Tensor batch_state_;   // reused [n, state_dim] staging for batch calls
};

}  // namespace dtmsv::rl
