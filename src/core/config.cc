#include "core/config.h"

namespace groupsa::core {

GroupSaConfig GroupSaConfig::Default() { return GroupSaConfig(); }

GroupSaConfig GroupSaConfig::GroupA() {
  GroupSaConfig c;
  c.variant = "Group-A";
  c.use_voting_scheme = false;
  c.use_item_aggregation = false;
  c.use_social_aggregation = false;
  return c;
}

GroupSaConfig GroupSaConfig::GroupS() {
  GroupSaConfig c;
  c.variant = "Group-S";
  c.use_voting_scheme = false;
  return c;
}

GroupSaConfig GroupSaConfig::GroupI() {
  GroupSaConfig c;
  c.variant = "Group-I";
  c.use_item_aggregation = false;
  return c;
}

GroupSaConfig GroupSaConfig::GroupF() {
  GroupSaConfig c;
  c.variant = "Group-F";
  c.use_social_aggregation = false;
  return c;
}

GroupSaConfig GroupSaConfig::GroupG() {
  GroupSaConfig c;
  c.variant = "Group-G";
  c.use_user_task = false;
  return c;
}

GroupSaConfig GroupSaConfig::NoSocialMask() {
  GroupSaConfig c;
  c.variant = "GroupSA-nomask";
  c.use_social_mask = false;
  return c;
}

}  // namespace groupsa::core
