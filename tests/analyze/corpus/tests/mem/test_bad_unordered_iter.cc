// Pairs src/mem/bad_unordered_iter.cc, so only its seeded rule fires.
