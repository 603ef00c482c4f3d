#include "core/model_io.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/hash.h"

namespace proclus {

namespace {
constexpr const char* kHeader = "PROCLUS-MODEL";
constexpr int kVersion = 1;
}  // namespace

Status SaveModel(const ProjectedClustering& model, std::ostream& out) {
  const size_t k = model.num_clusters();
  const size_t d = model.medoid_coords.cols();
  if (model.medoid_coords.rows() != k)
    return Status::InvalidArgument(
        "model has no medoid coordinates; cannot be saved as a "
        "self-contained model");
  out << kHeader << ' ' << kVersion << '\n';
  out << "k " << k << " d " << d << '\n';
  out << std::setprecision(17);
  out << "objective " << model.objective << '\n';
  out << "iterations " << model.iterations << " improvements "
      << model.improvements << '\n';
  for (size_t i = 0; i < k; ++i) {
    out << "medoid " << model.medoids[i];
    for (size_t j = 0; j < d; ++j) out << ' ' << model.medoid_coords(i, j);
    out << '\n';
  }
  for (size_t i = 0; i < k; ++i) {
    std::vector<uint32_t> dims = model.dimensions[i].ToVector();
    out << "dims " << dims.size();
    for (uint32_t dim : dims) out << ' ' << dim;
    out << '\n';
  }
  if (model.spheres.empty()) {
    out << "spheres none\n";
  } else {
    out << "spheres " << model.spheres.size();
    for (double sphere : model.spheres) out << ' ' << sphere;
    out << '\n';
  }
  if (!out) return Status::IOError("model write failed");
  return Status::OK();
}

Status SaveModelFile(const ProjectedClustering& model,
                     const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  return SaveModel(model, out);
}

Result<ProjectedClustering> LoadModel(std::istream& in) {
  std::string header;
  int version = 0;
  in >> header >> version;
  if (!in || header != kHeader)
    return Status::Corruption("not a PROCLUS model file");
  if (version != kVersion)
    return Status::Corruption("unsupported model version " +
                              std::to_string(version));
  std::string tag;
  size_t k = 0, d = 0;
  in >> tag >> k;
  if (!in || tag != "k") return Status::Corruption("expected 'k'");
  in >> tag >> d;
  if (!in || tag != "d") return Status::Corruption("expected 'd'");
  if (k == 0 || d == 0) return Status::Corruption("degenerate model shape");

  ProjectedClustering model;
  in >> tag >> model.objective;
  if (!in || tag != "objective")
    return Status::Corruption("expected 'objective'");
  in >> tag >> model.iterations;
  if (!in || tag != "iterations")
    return Status::Corruption("expected 'iterations'");
  in >> tag >> model.improvements;
  if (!in || tag != "improvements")
    return Status::Corruption("expected 'improvements'");

  model.medoids.resize(k);
  model.medoid_coords = Matrix(k, d);
  for (size_t i = 0; i < k; ++i) {
    in >> tag >> model.medoids[i];
    if (!in || tag != "medoid")
      return Status::Corruption("expected 'medoid' row " +
                                std::to_string(i));
    for (size_t j = 0; j < d; ++j) in >> model.medoid_coords(i, j);
    if (!in) return Status::Corruption("truncated medoid coordinates");
  }
  model.dimensions.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    size_t count = 0;
    in >> tag >> count;
    if (!in || tag != "dims")
      return Status::Corruption("expected 'dims' row " + std::to_string(i));
    DimensionSet set(d);
    for (size_t c = 0; c < count; ++c) {
      uint32_t dim;
      in >> dim;
      if (!in || dim >= d)
        return Status::Corruption("bad dimension index in model");
      set.Add(dim);
    }
    if (set.empty())
      return Status::Corruption("empty dimension set in model");
    model.dimensions.push_back(std::move(set));
  }
  in >> tag;
  if (!in || tag != "spheres")
    return Status::Corruption("expected 'spheres'");
  std::string count_token;
  in >> count_token;
  if (count_token != "none") {
    size_t count = 0;
    std::istringstream parse(count_token);
    parse >> count;
    if (parse.fail() || count != k)
      return Status::Corruption("bad sphere count");
    model.spheres.resize(k);
    for (size_t i = 0; i < k; ++i) in >> model.spheres[i];
    if (!in) return Status::Corruption("truncated spheres");
  }
  return model;
}

Result<ProjectedClustering> LoadModelFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  return LoadModel(in);
}

// ---------- Checkpoints ----------

namespace {

constexpr char kCheckpointMagic[4] = {'P', 'C', 'K', 'P'};
constexpr uint32_t kCheckpointVersion = 1;

// The file stores slots and indices as 64-bit words and labels as 32-bit
// integers, written straight from the vectors that hold them.
static_assert(sizeof(size_t) == sizeof(uint64_t));
static_assert(sizeof(int) == sizeof(int32_t));

template <typename T>
void PutRaw(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void PutVector(std::string& out, const std::vector<T>& v) {
  PutRaw(out, static_cast<uint64_t>(v.size()));
  if (!v.empty())
    out.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

void PutRecord(std::string& out, const ClimbRecord& record) {
  PutRaw(out, record.objective);
  PutVector(out, record.slots);
  PutRaw(out, static_cast<uint64_t>(record.dims.size()));
  for (const auto& list : record.dims) PutVector(out, list);
  PutVector(out, record.labels);
  PutRaw(out, record.iterations);
  PutRaw(out, record.improvements);
}

// Bounds-checked reader over the in-memory checkpoint payload: every Read
// validates against the remaining bytes, so a hostile length field can
// never drive an out-of-bounds access or an allocation beyond the bytes
// actually present.
class Cursor {
 public:
  Cursor(const char* data, size_t len) : p_(data), len_(len) {}

  size_t remaining() const { return len_ - off_; }

  bool ReadBytes(void* dest, size_t n) {
    if (n > remaining()) return false;
    std::memcpy(dest, p_ + off_, n);
    off_ += n;
    return true;
  }

  template <typename T>
  bool Read(T* value) {
    return ReadBytes(value, sizeof(T));
  }

  template <typename T>
  bool ReadVector(std::vector<T>* out) {
    uint64_t count = 0;
    if (!Read(&count)) return false;
    if (count > remaining() / sizeof(T)) return false;
    out->resize(static_cast<size_t>(count));
    return count == 0 ||
           ReadBytes(out->data(), static_cast<size_t>(count) * sizeof(T));
  }

  bool ReadRecord(ClimbRecord* record) {
    uint64_t lists = 0;
    if (!Read(&record->objective) || !ReadVector(&record->slots) ||
        !Read(&lists))
      return false;
    // Each list costs at least its 8-byte count.
    if (lists > remaining() / sizeof(uint64_t)) return false;
    record->dims.resize(static_cast<size_t>(lists));
    for (auto& list : record->dims)
      if (!ReadVector(&list)) return false;
    return ReadVector(&record->labels) && Read(&record->iterations) &&
           Read(&record->improvements);
  }

 private:
  const char* p_;
  size_t len_;
  size_t off_ = 0;
};

std::string SerializeCheckpoint(const ProclusCheckpoint& ck) {
  std::string out;
  out.append(kCheckpointMagic, sizeof(kCheckpointMagic));
  PutRaw(out, kCheckpointVersion);
  PutRaw(out, ck.fingerprint);
  PutRaw(out, ck.num_dims);
  PutRaw(out, ck.restart);
  for (uint64_t word : ck.rng.state) PutRaw(out, word);
  PutRaw(out, ck.rng.normal_spare);
  PutRaw(out, static_cast<uint8_t>(ck.rng.has_normal_spare ? 1 : 0));
  PutVector(out, ck.candidates);
  PutVector(out, ck.current);
  PutRecord(out, ck.climb);
  PutVector(out, ck.bad);
  PutRaw(out, ck.since_improvement);
  PutRecord(out, ck.best);
  PutRaw(out, Xxh64::Hash(out.data(), out.size()));
  return out;
}

}  // namespace

Status SaveCheckpoint(const ProclusCheckpoint& checkpoint,
                      std::ostream& out) {
  const std::string bytes = SerializeCheckpoint(checkpoint);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status::IOError("checkpoint write failed");
  return Status::OK();
}

Status SaveCheckpointFile(const ProclusCheckpoint& checkpoint,
                          const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      return Status::IOError("cannot open '" + tmp + "' for writing");
    Status status = SaveCheckpoint(checkpoint, out);
    if (!status.ok()) {
      out.close();
      std::remove(tmp.c_str());
      return status;
    }
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      return Status::IOError("checkpoint flush to '" + tmp + "' failed");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename '" + tmp + "' to '" + path + "'");
  }
  return Status::OK();
}

Result<ProclusCheckpoint> LoadCheckpoint(std::istream& in) {
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  // Smallest valid checkpoint: magic + version + trailer alone exceed 16.
  if (bytes.size() < sizeof(kCheckpointMagic) + sizeof(uint32_t) +
                         sizeof(uint64_t))
    return Status::Corruption("checkpoint truncated: " +
                              std::to_string(bytes.size()) + " bytes");
  if (std::memcmp(bytes.data(), kCheckpointMagic,
                  sizeof(kCheckpointMagic)) != 0)
    return Status::Corruption("not a PROCLUS checkpoint (bad magic)");

  // Verify the trailer before believing any field.
  const size_t body = bytes.size() - sizeof(uint64_t);
  uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + body, sizeof(stored));
  const uint64_t computed = Xxh64::Hash(bytes.data(), body);
  if (stored != computed)
    return Status::DataLoss(
        "checkpoint integrity trailer mismatch: stored " +
        std::to_string(stored) + ", computed " + std::to_string(computed));

  Cursor cur(bytes.data() + sizeof(kCheckpointMagic),
             body - sizeof(kCheckpointMagic));
  uint32_t version = 0;
  if (!cur.Read(&version))
    return Status::Corruption("checkpoint truncated in header");
  if (version != kCheckpointVersion)
    return Status::Corruption("unsupported checkpoint version " +
                              std::to_string(version));
  ProclusCheckpoint ck;
  uint8_t has_spare = 0;
  bool ok = cur.Read(&ck.fingerprint) && cur.Read(&ck.num_dims) &&
            cur.Read(&ck.restart);
  for (uint64_t& word : ck.rng.state) ok = ok && cur.Read(&word);
  ok = ok && cur.Read(&ck.rng.normal_spare) && cur.Read(&has_spare) &&
       cur.ReadVector(&ck.candidates) && cur.ReadVector(&ck.current) &&
       cur.ReadRecord(&ck.climb) && cur.ReadVector(&ck.bad) &&
       cur.Read(&ck.since_improvement) && cur.ReadRecord(&ck.best);
  if (!ok) return Status::Corruption("checkpoint truncated in body");
  if (cur.remaining() != 0)
    return Status::Corruption("checkpoint has " +
                              std::to_string(cur.remaining()) +
                              " trailing bytes");
  ck.rng.has_normal_spare = has_spare != 0;
  return ck;
}

Result<ProclusCheckpoint> LoadCheckpointFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    return Status::NotFound("cannot open checkpoint '" + path + "'");
  return LoadCheckpoint(in);
}

}  // namespace proclus
