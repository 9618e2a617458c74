// Pairs src/core/bad_core_id.cc, so only its seeded rule fires.
