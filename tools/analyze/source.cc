#include "analyze/source.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "analyze/lexer.hh"

namespace fdp::analyze
{

namespace fs = std::filesystem;

const SourceFile *
SourceTree::find(std::string_view relPath) const
{
    for (const SourceFile &f : files)
        if (f.relPath == relPath)
            return &f;
    return nullptr;
}

namespace
{

std::string
readWholeFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        throw std::runtime_error("fdp_analyze: cannot read " + p.string());
    std::ostringstream buf;
    buf << in.rdbuf();
    return std::move(buf).str();
}

} // namespace

SourceTree
loadTree(const std::string &root)
{
    SourceTree tree;
    tree.root = root;
    for (const char *top : {"src", "tools"}) {
        fs::path base = fs::path(root) / top;
        if (!fs::is_directory(base))
            continue;
        for (const auto &entry : fs::recursive_directory_iterator(base)) {
            if (!entry.is_regular_file())
                continue;
            const fs::path &p = entry.path();
            if (p.extension() != ".cc" && p.extension() != ".hh")
                continue;
            SourceFile sf;
            sf.relPath = fs::relative(p, root).generic_string();
            sf.lx = lex(readWholeFile(p));
            tree.files.push_back(std::move(sf));
        }
    }
    const fs::path tests = fs::path(root) / "tests";
    if (fs::is_directory(tests))
        for (const auto &entry : fs::recursive_directory_iterator(tests))
            if (entry.is_regular_file() && entry.path().extension() == ".cc")
                tree.testFiles.insert(
                    fs::relative(entry.path(), root).generic_string());
    std::sort(tree.files.begin(), tree.files.end(),
              [](const SourceFile &a, const SourceFile &b) {
                  return a.relPath < b.relPath;
              });
    return tree;
}

bool
pathUnder(std::string_view relPath, std::string_view prefix)
{
    if (relPath == prefix)
        return true;
    return relPath.size() > prefix.size() &&
           relPath.compare(0, prefix.size(), prefix) == 0 &&
           relPath[prefix.size()] == '/';
}

std::string
dirOf(std::string_view relPath, int components)
{
    std::size_t pos = 0;
    for (int c = 0; c < components; ++c) {
        std::size_t next = relPath.find('/', pos);
        if (next == std::string_view::npos)
            return std::string(relPath);
        pos = next + 1;
    }
    return std::string(relPath.substr(0, pos ? pos - 1 : 0));
}

} // namespace fdp::analyze
