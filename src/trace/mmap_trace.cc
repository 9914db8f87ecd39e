#include "trace/mmap_trace.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.h"

namespace sgms
{

std::shared_ptr<const MappedTraceFile>
MappedTraceFile::try_open(const std::string &path, std::string &error)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        error = std::string("cannot open: ") + std::strerror(errno);
        return nullptr;
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        error = std::string("cannot stat: ") + std::strerror(errno);
        ::close(fd);
        return nullptr;
    }
    uint64_t file_size = static_cast<uint64_t>(st.st_size);

    // Validate the header before mapping: a file shorter than the
    // header must not even be mapped at header size.
    unsigned char hdr_buf[kBinTraceHeaderBytes];
    ssize_t n = ::pread(fd, hdr_buf, sizeof(hdr_buf), 0);
    BinTraceHeader hdr;
    if (n < 0 ||
        !parse_bin_header(hdr_buf, static_cast<size_t>(n), file_size,
                          hdr, error)) {
        if (n < 0)
            error = std::string("read error: ") + std::strerror(errno);
        ::close(fd);
        return nullptr;
    }

    void *base =
        ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
    // The fd is not needed once mapped; the mapping keeps the file
    // alive even if it is later unlinked (e.g. store gc).
    ::close(fd);
    if (base == MAP_FAILED) {
        error = std::string("mmap failed: ") + std::strerror(errno);
        return nullptr;
    }
    // Replay is (multi-cursor) sequential; tell the kernel so
    // readahead stays aggressive on bigger-than-RAM traces.
    ::madvise(base, file_size, MADV_SEQUENTIAL);

    auto file = std::shared_ptr<MappedTraceFile>(new MappedTraceFile());
    file->path_ = path;
    file->header_ = hdr;
    file->base_ = base;
    file->mapped_bytes_ = file_size;
    return file;
}

std::shared_ptr<const MappedTraceFile>
MappedTraceFile::open(const std::string &path)
{
    std::string error;
    auto file = try_open(path, error);
    if (!file)
        fatal("trace file '%s': %s", path.c_str(), error.c_str());
    return file;
}

MappedTraceFile::~MappedTraceFile()
{
    if (base_)
        ::munmap(base_, mapped_bytes_);
}

uint64_t
MappedTraceFile::payload_hash() const
{
    return fnv1a_bytes(records(), size() * kBinTraceRecordBytes);
}

std::unique_ptr<TraceSource>
make_mapped_trace(const std::string &path)
{
    return std::make_unique<ReplayTrace>(MappedTraceFile::open(path));
}

} // namespace sgms
