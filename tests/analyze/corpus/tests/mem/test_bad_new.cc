// Pairs src/mem/bad_new.cc, so only its seeded rule fires.
