// Pairs src/mem/bad_layering.cc, so only its seeded rule fires.
