// Pairs src/mem/suppressed_ok.cc, so only its seeded rule fires.
