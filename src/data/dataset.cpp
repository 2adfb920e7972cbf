#include "data/dataset.hpp"

#include <algorithm>
#include <stdexcept>

namespace fedsched::data {

Dataset::Dataset(tensor::Tensor images, std::vector<std::uint16_t> labels,
                 std::size_t classes, std::size_t channels, std::size_t height,
                 std::size_t width)
    : images_(std::move(images)),
      labels_(std::move(labels)),
      classes_(classes),
      channels_(channels),
      height_(height),
      width_(width) {
  if (images_.rank() != 2) throw std::invalid_argument("Dataset: images must be 2-D");
  if (images_.dim(0) != labels_.size()) {
    throw std::invalid_argument("Dataset: image/label count mismatch");
  }
  if (images_.dim(1) != features()) {
    throw std::invalid_argument("Dataset: feature count mismatch");
  }
  for (std::uint16_t label : labels_) {
    if (label >= classes_) throw std::invalid_argument("Dataset: label out of range");
  }
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  const std::size_t f = features();
  tensor::Tensor images({indices.size(), f});
  std::vector<std::uint16_t> labels(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::size_t src = indices[i];
    if (src >= size()) throw std::out_of_range("Dataset::subset: index out of range");
    std::copy_n(images_.raw() + src * f, f, images.raw() + i * f);
    labels[i] = labels_[src];
  }
  return {std::move(images), std::move(labels), classes_, channels_, height_, width_};
}

void Dataset::fill_batch(std::span<const std::size_t> indices, tensor::Tensor& batch,
                         std::vector<std::uint16_t>& labels) const {
  const std::size_t f = features();
  batch.resize({indices.size(), f});
  labels.resize(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::size_t src = indices[i];
    if (src >= size()) throw std::out_of_range("Dataset::fill_batch: index out of range");
    std::copy_n(images_.raw() + src * f, f, batch.raw() + i * f);
    labels[i] = labels_[src];
  }
}

std::vector<std::size_t> Dataset::class_histogram() const {
  std::vector<std::size_t> hist(classes_, 0);
  for (std::uint16_t label : labels_) ++hist[label];
  return hist;
}

std::vector<std::size_t> Dataset::class_histogram(
    std::span<const std::size_t> indices) const {
  std::vector<std::size_t> hist(classes_, 0);
  for (std::size_t i : indices) ++hist[labels_.at(i)];
  return hist;
}

std::vector<std::vector<std::size_t>> indices_by_class(const Dataset& ds) {
  std::vector<std::vector<std::size_t>> result(ds.classes());
  for (std::size_t i = 0; i < ds.size(); ++i) result[ds.label(i)].push_back(i);
  return result;
}

}  // namespace fedsched::data
