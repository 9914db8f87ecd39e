/**
 * @file
 * A private temporary directory for one test. ctest runs each test
 * case as its own process, several at once, so a fixed /tmp path
 * shared by two cases is a race.
 */

#ifndef SGMS_TESTS_TEMP_DIR_H
#define SGMS_TESTS_TEMP_DIR_H

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace sgms::test
{

/** A fresh directory under /tmp, removed with its contents. */
class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/sgms_test_XXXXXX";
        if (!::mkdtemp(tmpl))
            std::abort();
        path_ = tmpl;
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return path_; }

    /** The path of @p name inside the directory. */
    std::string
    file(const std::string &name) const
    {
        return path_ + "/" + name;
    }

    /** Write @p body to @p name inside the directory; returns its path. */
    std::string
    write(const std::string &name, const std::string &body) const
    {
        std::string p = file(name);
        std::ofstream(p, std::ios::binary) << body;
        return p;
    }

  private:
    std::string path_;
};

} // namespace sgms::test

#endif // SGMS_TESTS_TEMP_DIR_H
